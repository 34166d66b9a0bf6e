#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/telemetry.h"

namespace idxsel::obs {
namespace {

/// Escapes a string for embedding in a JSON string literal. Metric names
/// are plain identifiers, but strategy names ("H6 (Algorithm 1)") pass
/// through here too, so cover the general case.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatJsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

double Histogram::Percentile(double p) const {
  p = std::clamp(p, 0.0, 100.0);
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;

  const double target = (p / 100.0) * static_cast<double>(total);
  double cum = 0.0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (counts[b] == 0) continue;
    const double in_bucket = static_cast<double>(counts[b]);
    if (cum + in_bucket >= target) {
      const double lower = static_cast<double>(BucketLowerBound(b));
      const double upper = static_cast<double>(BucketUpperBound(b));
      const double frac = std::clamp((target - cum) / in_bucket, 0.0, 1.0);
      const double value = lower + frac * (upper - lower);
      // The exact extremes are tracked; never report beyond them.
      return std::clamp(value, static_cast<double>(Min()),
                        static_cast<double>(Max()));
    }
    cum += in_bucket;
  }
  return static_cast<double>(Max());
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"schema\": \"idxsel.metrics.v1\",\n";
  char buf[64];

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out += first ? "\n" : ",\n";
    out += "    \"" + EscapeJson(name) + "\": " + buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    out += first ? "\n" : ",\n";
    out += "    \"" + EscapeJson(name) + "\": " + buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + EscapeJson(name) + "\": {";
    std::snprintf(buf, sizeof(buf), "\"count\": %" PRIu64 ", ", h.count);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"sum\": %" PRIu64 ", ", h.sum);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"min\": %" PRIu64 ", ", h.min);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"max\": %" PRIu64 ", ", h.max);
    out += buf;
    out += "\"mean\": " + FormatJsonDouble(h.mean) + ", ";
    out += "\"p50\": " + FormatJsonDouble(h.p50) + ", ";
    out += "\"p95\": " + FormatJsonDouble(h.p95) + ", ";
    out += "\"p99\": " + FormatJsonDouble(h.p99) + "}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value > base) delta.counters[name] = value - base;
  }
  delta.gauges = after.gauges;
  for (const auto& [name, h] : after.histograms) {
    const auto it = before.histograms.find(name);
    HistogramSnapshot d = h;  // shape (min/max/percentiles) from `after`
    if (it != before.histograms.end()) {
      d.count = h.count >= it->second.count ? h.count - it->second.count : 0;
      d.sum = h.sum >= it->second.sum ? h.sum - it->second.sum : 0;
    }
    if (d.count > 0) delta.histograms[name] = d;
  }
  return delta;
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();  // leaked: outlive everything
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  common::MutexLock lock(&mu_);
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  common::MutexLock lock(&mu_);
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  common::MutexLock lock(&mu_);
  auto [it, inserted] = histograms_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Histogram>();
  return it->second.get();
}

MetricsSnapshot Registry::Snapshot() const {
  common::MutexLock lock(&mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  // Bridge the dependency-free telemetry slots (common/telemetry.h): layers
  // below obs in the DAG (exec, kernel) publish through plain atomics
  // instead of registry pointers; snapshots surface them as counters under
  // their registry names.
  for (size_t s = 0; s < telemetry::kSlotCount; ++s) {
    const auto slot = static_cast<telemetry::Slot>(s);
    snapshot.counters[telemetry::SlotName(slot)] =
        static_cast<uint64_t>(telemetry::Value(slot));
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->Count();
    h.sum = histogram->Sum();
    h.min = histogram->Min();
    h.max = histogram->Max();
    h.mean = histogram->Mean();
    h.p50 = histogram->Percentile(50.0);
    h.p95 = histogram->Percentile(95.0);
    h.p99 = histogram->Percentile(99.0);
    snapshot.histograms[name] = h;
  }
  return snapshot;
}

void Registry::ResetCountersAndHistograms() {
  common::MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  // Bridged slots are counters to their consumers; reset them in lockstep.
  telemetry::ResetAll();
}

}  // namespace idxsel::obs
