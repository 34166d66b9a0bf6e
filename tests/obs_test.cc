// Tests for the observability layer: histogram percentile math, span
// nesting and thread-safety, disabled-mode no-ops, registry semantics, and
// an end-to-end advisor run whose trace/metrics JSON must be well-formed
// and carry the promised keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "obs/obs.h"
#include "workload/scalable_generator.h"

namespace idxsel::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (values only, no schema): enough to
// prove our hand-rolled serializers emit parseable documents.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    const size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!Value()) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

// ---------------------------------------------------------------------------
// Histogram bucket and percentile math.

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), 64u);
  // Every bucket's bounds bracket exactly the values mapped into it.
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t lo = Histogram::BucketLowerBound(b);
    EXPECT_EQ(Histogram::BucketOf(lo), b) << "bucket " << b;
    if (b > 0) {
      EXPECT_EQ(Histogram::BucketOf(lo - 1), b - 1) << "bucket " << b;
    }
  }
}

TEST(HistogramTest, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, SingleValuePercentilesCollapse) {
  Histogram h;
  h.Record(1000);
  // With one sample, every percentile is clamped to the observed value.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
}

TEST(HistogramTest, PercentilesAreMonotoneAndBounded) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const double p50 = h.Percentile(50);
  const double p95 = h.Percentile(95);
  const double p99 = h.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-scale buckets guarantee at most 2x relative error.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 495.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
}

TEST(HistogramTest, PercentileClampsToObservedRange) {
  Histogram h;
  h.Record(5);
  h.Record(7);  // both land in bucket 3 = [4, 8)
  EXPECT_GE(h.Percentile(0), 5.0);
  EXPECT_LE(h.Percentile(100), 7.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(HistogramTest, ConcurrentRecordsLoseNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t v = 1; v <= kPerThread; ++v) h.Record(v);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), kPerThread);
}

// ---------------------------------------------------------------------------
// Registry semantics.

TEST(RegistryTest, InterningReturnsStablePointers) {
  Registry registry;
  Counter* a = registry.GetCounter("test.counter");
  Counter* b = registry.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  // Counters, gauges and histograms are separate namespaces.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("test.counter")),
            static_cast<void*>(a));
}

TEST(RegistryTest, ResetSparesGauges) {
  Registry registry;
  registry.GetCounter("test.c")->Add(5);
  registry.GetHistogram("test.h")->Record(9);
  registry.GetGauge("test.g")->Set(17);
  registry.ResetCountersAndHistograms();
  EXPECT_EQ(registry.GetCounter("test.c")->Value(), 0u);
  EXPECT_EQ(registry.GetHistogram("test.h")->Count(), 0u);
  EXPECT_EQ(registry.GetGauge("test.g")->Value(), 17);
}

TEST(RegistryTest, SnapshotDeltaDropsUnchangedCounters) {
  Registry registry;
  registry.GetCounter("test.changed")->Add(1);
  registry.GetCounter("test.stale")->Add(1);
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetCounter("test.changed")->Add(2);
  const MetricsSnapshot delta = SnapshotDelta(before, registry.Snapshot());
  ASSERT_EQ(delta.counters.count("test.changed"), 1u);
  EXPECT_EQ(delta.counters.at("test.changed"), 2u);
  EXPECT_EQ(delta.counters.count("test.stale"), 0u);
}

TEST(RegistryTest, JsonIsWellFormed) {
  Registry registry;
  registry.GetCounter("test.\"quoted\"\\name")->Add(3);
  registry.GetGauge("test.gauge")->Set(-4);
  registry.GetHistogram("test.hist")->Record(1234);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("idxsel.metrics.v1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Spans and the tracer.

TEST(SpanTest, DisabledSpanRecordsNothing) {
  SetEnabled(false);
  Tracer& tracer = Tracer::Default();
  const size_t mark = tracer.size();
  {
    Span outer("test", "outer");
    Span inner("test", "inner");
    inner.SetArg("n", 1.0);
  }
  EXPECT_EQ(tracer.size(), mark);
  EXPECT_EQ(internal::tls_span_depth, 0u);
}

TEST(SpanTest, NestingDepthsAndContainment) {
  SetEnabled(true);
  Tracer& tracer = Tracer::Default();
  tracer.Clear();
  {
    Span outer("test", "outer");
    {
      Span inner("test", "inner");
    }
  }
  SetEnabled(false);
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Children close (and record) before their parents.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].start_ns + spans[0].duration_ns,
            spans[1].start_ns + spans[1].duration_ns);
  tracer.Clear();
}

TEST(SpanTest, ThreadsGetDistinctIdsAndAllSpansLand) {
  SetEnabled(true);
  Tracer& tracer = Tracer::Default();
  tracer.Clear();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int s = 0; s < kSpansPerThread; ++s) {
        Span span("test", "worker");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  SetEnabled(false);
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  EXPECT_EQ(spans.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  std::vector<uint32_t> ids;
  for (const SpanRecord& s : spans) ids.push_back(s.thread_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads));
  tracer.Clear();
}

TEST(TracerTest, CapacityBoundsMemoryAndCountsDrops) {
  Tracer tracer;
  tracer.set_capacity(4);
  SpanRecord record;
  record.category = "test";
  record.name = "r";
  for (int i = 0; i < 10; ++i) tracer.Record(record);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(TracerTest, ChromeJsonAndTreeRender) {
  std::vector<SpanRecord> spans;
  SpanRecord outer;
  outer.category = "cat";
  outer.name = "outer";
  outer.start_ns = 1000;
  outer.duration_ns = 4000;
  SpanRecord inner;
  inner.category = "cat";
  inner.name = "inner";
  inner.start_ns = 2000;
  inner.duration_ns = 1000;
  inner.depth = 1;
  inner.arg_name = "round";
  inner.arg_value = 3.0;
  spans.push_back(inner);
  spans.push_back(outer);

  const std::string json = Tracer::ToChromeJson(spans);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"round\""), std::string::npos);

  const std::string tree = Tracer::RenderTree(spans);
  // The tree sorts by start time and indents by depth.
  EXPECT_LT(tree.find("outer"), tree.find("inner"));
  EXPECT_NE(tree.find("  inner"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: one advisor run must produce well-formed, key-complete
// trace and metrics JSON (the contract doc/observability.md promises).

class ObsAdvisorTest : public ::testing::Test {
 protected:
  ObsAdvisorTest() {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 6;
    params.queries_per_table = 10;
    w_ = workload::GenerateScalableWorkload(params);
    model_ = std::make_unique<costmodel::CostModel>(&w_);
    backend_ = std::make_unique<costmodel::ModelBackend>(model_.get());
    engine_ =
        std::make_unique<costmodel::WhatIfEngine>(&w_, backend_.get());
  }

  workload::Workload w_;
  std::unique_ptr<costmodel::CostModel> model_;
  std::unique_ptr<costmodel::ModelBackend> backend_;
  std::unique_ptr<costmodel::WhatIfEngine> engine_;
};

TEST_F(ObsAdvisorTest, RecommendProducesSchemaValidReport) {
  SetEnabled(true);
  Tracer::Default().Clear();
  advisor::AdvisorOptions options;
  options.strategy = advisor::StrategyKind::kRecursive;
  const Result<advisor::Recommendation> rec = advisor::Recommend(*engine_, options);
  SetEnabled(false);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const RunReport& report = rec->report;

  EXPECT_EQ(report.name, "H6 (Algorithm 1)");
  EXPECT_GT(report.wall_seconds, 0.0);

  // Metrics: what-if call accounting and selector step counts made it in.
  const std::string metrics_json = report.MetricsJson();
  EXPECT_TRUE(IsValidJson(metrics_json)) << metrics_json;
  EXPECT_NE(metrics_json.find("\"schema\": \"idxsel.metrics.v1\""),
            std::string::npos);
  ASSERT_EQ(report.metrics.counters.count("idxsel.whatif.calls"), 1u);
  EXPECT_GT(report.metrics.counters.at("idxsel.whatif.calls"), 0u);
  ASSERT_EQ(report.metrics.counters.count("idxsel.whatif.cache_hits"), 1u);
  ASSERT_EQ(report.metrics.counters.count("idxsel.selector.runs"), 1u);
  EXPECT_EQ(report.metrics.counters.at("idxsel.selector.runs"), 1u);
  EXPECT_GT(report.metrics.counters.count("idxsel.selector.rounds"), 0u);
  EXPECT_GT(
      report.metrics.counters.count("idxsel.selector.candidate_evals"), 0u);
  // Per-strategy wall time (runs counter + latency histogram).
  ASSERT_EQ(report.metrics.counters.count("idxsel.strategy.h6.runs"), 1u);
  ASSERT_EQ(report.metrics.histograms.count("idxsel.strategy.h6.wall_ns"),
            1u);
  EXPECT_GT(report.metrics.histograms.at("idxsel.strategy.h6.wall_ns").max,
            0u);

  // Trace: Chrome-loadable JSON with the advisor and selector spans.
  const std::string trace_json = report.TraceJson();
  EXPECT_TRUE(IsValidJson(trace_json)) << trace_json;
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("advisor.recommend"), std::string::npos);
  EXPECT_NE(trace_json.find("h6.run"), std::string::npos);
  EXPECT_NE(trace_json.find("h6.round"), std::string::npos);

  // Combined report document and human-readable digest.
  EXPECT_TRUE(IsValidJson(report.ToJson()));
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("what-if calls"), std::string::npos);
  EXPECT_NE(summary.find("hit rate"), std::string::npos);
  Tracer::Default().Clear();
}

TEST_F(ObsAdvisorTest, CophyRunReportsMipCounters) {
  SetEnabled(true);
  Tracer::Default().Clear();
  advisor::AdvisorOptions options;
  options.strategy = advisor::StrategyKind::kCophy;
  options.candidate_limit = 40;
  const Result<advisor::Recommendation> rec = advisor::Recommend(*engine_, options);
  SetEnabled(false);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const RunReport& report = rec->report;
  ASSERT_EQ(report.metrics.counters.count("idxsel.mip.solves"), 1u);
  ASSERT_EQ(report.metrics.counters.count("idxsel.mip.nodes"), 1u);
  ASSERT_EQ(report.metrics.counters.count("idxsel.cophy.solves"), 1u);
  EXPECT_NE(report.TraceJson().find("cophy.solve"), std::string::npos);
  EXPECT_NE(report.TraceJson().find("mip.solve"), std::string::npos);
  Tracer::Default().Clear();
}

TEST_F(ObsAdvisorTest, RuntimeDisabledRunRecordsNoSpans) {
  SetEnabled(false);
  Tracer::Default().Clear();
  advisor::AdvisorOptions options;
  const Result<advisor::Recommendation> rec = advisor::Recommend(*engine_, options);
  ASSERT_TRUE(rec.ok());
  // Counters still flow (they are as cheap as the struct fields they
  // mirror); spans and latency histograms stay silent.
  EXPECT_GT(rec->report.metrics.counters.count("idxsel.whatif.calls"), 0u);
  EXPECT_TRUE(rec->report.spans.empty());
  EXPECT_EQ(rec->report.metrics.histograms.count(
                "idxsel.whatif.backend_latency_ns"),
            0u);
}

}  // namespace
}  // namespace idxsel::obs
