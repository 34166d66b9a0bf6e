#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "obs/metrics.h"

namespace idxsel::e2e {

namespace {

/// Mean reading in nanoseconds between two back-to-back Clock::now()
/// calls — what timing an empty call would report. Measured once.
double ClockPairNanos() {
  static const double nanos = [] {
    constexpr int kPairs = 10'000;
    Clock::duration total{};
    for (int i = 0; i < kPairs; ++i) {
      const Clock::time_point a = Clock::now();
      total += Clock::now() - a;
    }
    return std::chrono::duration<double, std::nano>(total).count() / kPairs;
  }();
  return nanos;
}

}  // namespace

double BackendTally::seconds() const {
  const auto timed =
      static_cast<double>(timed_calls.load(std::memory_order_relaxed));
  if (timed == 0.0) return 0.0;
  const double net_nanos =
      static_cast<double>(timed_nanos.load(std::memory_order_relaxed)) -
      timed * ClockPairNanos();
  return std::max(0.0, net_nanos) * 1e-9 *
         static_cast<double>(calls.load(std::memory_order_relaxed)) / timed;
}

template <typename F>
double TimingBackend::Timed(F&& call) const {
  if (!tally_->active.load(std::memory_order_relaxed)) return call();
  const uint64_t n = tally_->calls.fetch_add(1, std::memory_order_relaxed);
  // Hashed, not n % k: a strided sample could alias with the selector's
  // loops over queries and indexes.
  if (SplitMix64(n) % BackendTally::kSampleEvery != 0) return call();
  const Clock::time_point start = Clock::now();
  const double value = call();
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - start);
  tally_->timed_calls.fetch_add(1, std::memory_order_relaxed);
  tally_->timed_nanos.fetch_add(elapsed.count(), std::memory_order_relaxed);
  return value;
}

double TimingBackend::BaseCost(costmodel::QueryId j) const {
  return Timed([&] { return inner_->BaseCost(j); });
}

double TimingBackend::CostWithIndex(costmodel::QueryId j,
                                    const costmodel::Index& k) const {
  return Timed([&] { return inner_->CostWithIndex(j, k); });
}

double TimingBackend::CostWithConfig(
    costmodel::QueryId j, const costmodel::IndexConfig& config) const {
  return Timed([&] { return inner_->CostWithConfig(j, config); });
}

double TimingBackend::IndexMemory(const costmodel::Index& k) const {
  return Timed([&] { return inner_->IndexMemory(k); });
}

double TimingBackend::MaintenanceCost(costmodel::QueryId j,
                                      const costmodel::Index& k) const {
  return Timed([&] { return inner_->MaintenanceCost(j, k); });
}

void SpanLog::Add(const std::string& name, const char* layer,
                  Clock::time_point start, Clock::time_point end) {
  if (!recording()) return;
  spans_.push_back(Span{name, layer, op_, start, end});
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(SecondsBetween(s.start, s.end));
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"op\": %llu}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer,
                 SecondsBetween(origin_, s.start) * 1e6,
                 SecondsBetween(s.start, s.end) * 1e6,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::function<void(const char*)> HookRecorder::Hook() {
  return [this](const char* point) {
    if (active_) points_.emplace_back(point, Clock::now());
  };
}

void HookRecorder::EndPump(SpanLog* spans) {
  static const char* const kChain[][3] = {
      {"pump-start", "round-start", "apply"},
      {"round-start", "pre-commit", "round"},
      {"pre-commit", "checkpoint-temp-written", "checkpoint"},
      {"checkpoint-temp-written", "journal-appended", "journal"},
      {"journal-appended", "committed", "publish"},
  };
  for (const auto& link : kChain) {
    const Clock::time_point* from = nullptr;
    for (const auto& [point, at] : points_) {
      if (point == link[0]) from = &at;
      if (point == link[1] && from != nullptr) {
        intervals_[link[2]].push_back(SecondsBetween(*from, at));
        spans->Add(std::string("serve.") + link[2], "serve", *from, at);
        from = nullptr;
      }
    }
  }
  points_.clear();
}

const std::vector<double>& HookRecorder::Interval(
    const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = intervals_.find(name);
  return it == intervals_.end() ? kEmpty : it->second;
}

Counters SnapshotCounters() {
  return obs::Registry::Default().Snapshot().counters;
}

void ReportCounterLayers(const Counters& before, const Counters& after,
                         double ops, double steps, RunResult* result) {
  const auto delta = [&](const char* name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    const uint64_t to = a == after.end() ? 0 : a->second;
    const uint64_t from = b == before.end() ? 0 : b->second;
    return static_cast<double>(to - from);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double hits = delta("idxsel.whatif.cache_hits");
  const double calls = delta("idxsel.whatif.calls");
  const double rounds = delta("idxsel.selector.rounds");
  const double evals = delta("idxsel.selector.candidate_evals");
  const double fast = delta("idxsel.kernel.fast_path_hits");
  const double fallback = delta("idxsel.kernel.fallback_lookups");
  const double arbiter = delta("idxsel.shard.arbiter_rounds");
  result->Set("costmodel.cache_hit_ratio", ratio(hits, hits + calls));
  result->Set("core.steps", ratio(steps, ops));
  result->Set("core.rounds", ratio(rounds, ops));
  result->Set("core.candidate_evals", ratio(evals, ops));
  result->Set("core.evals_per_step", ratio(evals, steps));
  result->Set("kernel.fast_path_ratio", ratio(fast, fast + fallback));
  result->Set("kernel.arena_interns",
              ratio(delta("idxsel.kernel.arena_interns"), ops));
  result->Set("kernel.filtered_queries",
              ratio(delta("idxsel.kernel.filtered_queries"), ops));
  result->Set("shard.reruns", ratio(delta("idxsel.shard.reruns"), ops));
  result->Set("shard.arbiter_rounds", ratio(arbiter, ops));
  result->Set("shard.rounds_per_commit", ratio(rounds, arbiter));
}

}  // namespace idxsel::e2e
