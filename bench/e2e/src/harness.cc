#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/resource.h"
#include "provenance.h"
#include "serve/delta.h"

namespace idxsel::e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

bool RelativelyEqual(double a, double b, double tolerance) {
  return std::abs(a - b) <= tolerance * std::max(std::abs(a), std::abs(b));
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"latency_p50_ms", "ms"}, {"ops_per_s", "1/s"},
      {"cost_ratio", "ratio"},  {"whatif_calls", "calls"},
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"workload.parse_s", "s"},
      {"advisor.recommend_s", "s"},
      {"costmodel.backend_s", "s"},
      {"costmodel.backend_calls", "calls"},
      {"costmodel.cache_hit_ratio", "ratio"},
      {"core.self_s", "s"},
      {"core.steps", "count"},
      {"core.rounds", "count"},
      {"core.candidate_evals", "count"},
      {"core.evals_per_step", "ratio"},
      {"kernel.fast_path_ratio", "ratio"},
      {"kernel.arena_interns", "count"},
      {"kernel.filtered_queries", "count"},
      {"shard.reruns", "count"},
      {"shard.arbiter_rounds", "count"},
      {"shard.rounds_per_commit", "ratio"},
      {"serve.submit_ms", "ms"},
      {"serve.apply_ms", "ms"},
      {"serve.round_ms", "ms"},
      {"serve.checkpoint_ms", "ms"},
      {"serve.journal_ms", "ms"},
      {"serve.publish_ms", "ms"},
      {"serve.pumps", "count"},
      {"serve.epochs", "count"},
      {"serve.deltas_coalesced", "count"},
      {"serve.deltas_shed", "count"},
      {"serve.engine_rebuilds", "count"},
      {"serve.pump_whatif_calls", "calls"},
      {"serve.queue_depth_max", "count"},
      {"serve.checkpoint_bytes", "bytes"},
      {"serve.wal_bytes", "bytes"},
      {"serve.recover_ms", "ms"},
      {"serve.recover_replayed", "count"},
      {"serve.plan_s", "s"},
      {"serve.plan_steps", "count"},
      {"engine.db_build_s", "s"},
      {"engine.index_build_s", "s"},
      {"engine.index_bytes", "bytes"},
      {"engine.scan_us", "us"},
      {"engine.probe_us", "us"},
      {"engine.rows_touched_ratio", "ratio"},
      {"engine.deploy_s", "s"},
      {"engine.exec_before_ms", "ms"},
      {"engine.exec_during_ms", "ms"},
      {"engine.exec_after_ms", "ms"},
      {"engine.realized_ratio", "ratio"},
      {"harness.latency_p90_ms", "ms"},
      {"harness.lag_p99_ms", "ms"},
      {"harness.trace_overhead", "ratio"},
      {"harness.ops", "count"},
  };
  return specs;
}

double TimeSetup(const std::function<void()>& setup) {
  // A single setup of 0.1 s varies by 20% on a shared machine; the median
  // of eleven settles.
  constexpr int kReps = 11;
  std::vector<double> seconds;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  return Median(std::move(seconds));
}

workload::NamedWorkload NameWorkload(workload::Workload w) {
  workload::NamedWorkload named;
  named.attribute_names.reserve(w.num_attributes());
  for (workload::AttributeId i = 0;
       i < static_cast<workload::AttributeId>(w.num_attributes()); ++i) {
    const workload::AttributeStats& a = w.attribute(i);
    named.attribute_names.push_back(w.table(a.table).name + ".a" +
                                    std::to_string(a.ordinal));
  }
  named.workload = std::move(w);
  return named;
}

namespace {

bool IsListed(const std::vector<MetricSpec>& specs, const std::string& name) {
  return std::any_of(specs.begin(), specs.end(),
                     [&](const MetricSpec& s) { return name == s.name; });
}

const std::vector<MetricSpec>& Reported(const Options& options) {
  return options.trace ? PerLayerMetrics() : EndToEndMetrics();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest decimal that parses back to exactly `v`: every digit measured,
/// none invented.
std::string JsonNumber(double v) {
  return std::isfinite(v) ? serve::FormatExactDouble(v) : "null";
}

}  // namespace

void RunResult::Set(const std::string& name, double value) {
  if (!IsListed(EndToEndMetrics(), name) &&
      !IsListed(PerLayerMetrics(), name)) {
    std::fprintf(stderr, "bench_e2e: unlisted metric '%s'\n", name.c_str());
    std::abort();
  }
  metrics_[name] = value;
}

void RunResult::Param(const std::string& name, double value) {
  params_[name] = value;
}

void RunResult::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 32) failures_.push_back(what);
}

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++run_failures_;
  if (failures_.size() < 32) failures_.push_back(what);
}

void RunResult::CheckReported(const Options& options) {
  for (const MetricSpec& spec : Reported(options)) {
    const auto it = metrics_.find(spec.name);
    if (it == metrics_.end()) {
      if (!options.trace) {
        Check(false, std::string("metric not measured: ") + spec.name);
      }
      continue;
    }
    Check(std::isfinite(it->second),
          std::string("metric not finite: ") + spec.name);
    if (!options.trace) {
      Check(it->second > 0.0, std::string("metric not positive: ") + spec.name);
    }
  }
}

std::string RunResult::MetricsJson(const Options& options) const {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& spec : Reported(options)) {
    const auto it = metrics_.find(spec.name);
    const double value = it == metrics_.end() ? 0.0 : it->second;
    out += first ? "" : ", ";
    first = false;
    out += JsonString(spec.name) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  return out + "}";
}

void RunResult::Print(const Options& options) const {
  std::printf("%s metrics, workload %s, seed %llu:\n",
              options.trace ? "per-layer" : "end-to-end",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed));
  for (const MetricSpec& spec : Reported(options)) {
    const auto it = metrics_.find(spec.name);
    std::printf("  %-28s %.6g %s\n", spec.name,
                it == metrics_.end() ? 0.0 : it->second, spec.unit);
  }
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), MetricsJson(options).c_str());
  std::fflush(stdout);
}

bool RunResult::WriteFile(const Options& options,
                          const std::string& path) const {
  std::string doc = "{\n  \"schema\": \"idxsel.bench_e2e.v1\",\n";
  doc += "  \"provenance\": {\"git_sha\": " + JsonString(E2E_GIT_SHA) +
         ", \"git_dirty\": " E2E_GIT_DIRTY_JSON ", \"build_type\": " +
         JsonString(E2E_BUILD_TYPE) + ", \"compiler\": " +
         JsonString(E2E_COMPILER) + ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) + "},\n";
  doc += "  \"workload\": " + JsonString(options.workload) + ",\n";
  doc += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  doc += "  \"seconds\": " + JsonNumber(options.seconds) + ",\n";
  doc += "  \"trace\": " + std::string(options.trace ? "true" : "false") +
         ",\n  \"smoke\": " + (options.smoke ? "true" : "false") + ",\n";
  doc += "  \"params\": {";
  bool first = true;
  for (const auto& [name, value] : params_) {
    doc += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  doc += "},\n";
  doc += "  \"correct\": " + std::string(correct() ? "true" : "false") + ",\n";
  doc += "  \"attempted\": " + std::to_string(attempted_) + ",\n";
  doc += "  \"failed\": " + std::to_string(failed_) + ",\n";
  doc += "  \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    doc += (i == 0 ? "" : ", ") + JsonString(failures_[i]);
  }
  doc += "],\n  \"metrics\": " + MetricsJson(options) + "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

bool ClosedLoop::Next() {
  if (!started_) {
    started_ = true;
    start_ = Clock::now();
    return true;
  }
  ++op_;
  return op_ < pool_ * reps_ || SecondsSince(start_) < seconds_;
}

void ClosedLoop::Record(double seconds) {
  latency_.push_back(seconds);
  if (traced() && latency_.size() >= 2) {
    overhead_.push_back(seconds / latency_[latency_.size() - 2]);
  }
}

void ClosedLoop::Report(RunResult* result) const {
  double busy = 0.0;
  for (double s : latency_) busy += s;
  result->Set("latency_p50_ms", Median(latency_) * 1e3);
  result->Set("ops_per_s", ops() / busy);
  result->Set("harness.latency_p90_ms", Quantile(latency_, 0.9) * 1e3);
  result->Set("harness.ops", ops());
  result->Set("harness.trace_overhead", Median(overhead_));
}

double PeakRssMb() {
  return static_cast<double>(obs::SampleResources().peak_rss_kb) / 1024.0;
}

}  // namespace idxsel::e2e
