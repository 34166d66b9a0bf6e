// google-benchmark micro-benchmarks of the observability layer itself:
// the cost of a span, a counter increment, and a histogram record, in both
// runtime states. These back the overhead claims in doc/observability.md —
// runtime-disabled spans are one relaxed atomic load, counter adds are one
// relaxed fetch_add, and nothing on these paths allocates.

#include <benchmark/benchmark.h>

#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "obs/obs.h"
#include "workload/scalable_generator.h"

namespace idxsel::obs {
namespace {

void BM_SpanDisabled(benchmark::State& state) {
  SetEnabled(false);
  for (auto _ : state) {
    Span span("bench", "disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  SetEnabled(true);
  Tracer::Default().Clear();
  for (auto _ : state) {
    Span span("bench", "enabled");
    benchmark::DoNotOptimize(&span);
  }
  SetEnabled(false);
  Tracer::Default().Clear();
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterAdd(benchmark::State& state) {
  Counter* counter = Registry::Default().GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Add();
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram* histogram = Registry::Default().GetHistogram("bench.histogram");
  uint64_t value = 1;
  for (auto _ : state) {
    histogram->Record(value);
    value = value * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG
  }
  benchmark::DoNotOptimize(histogram->Count());
}
BENCHMARK(BM_HistogramRecord);

void BM_RegistryLookup(benchmark::State& state) {
  // The interned-pointer pattern exists to keep this off hot paths; this
  // shows what a by-name lookup per operation would cost instead.
  Registry& registry = Registry::Default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.GetCounter("bench.lookup"));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_WhatIfCachedCall(benchmark::State& state) {
  // End-to-end hot path: a fully cached what-if call with its counter
  // mirroring, in both runtime states (range(0) = enabled).
  workload::ScalableWorkloadParams params;
  params.num_tables = 1;
  params.attributes_per_table = 8;
  params.queries_per_table = 16;
  workload::Workload w = workload::GenerateScalableWorkload(params);
  const costmodel::CostModel model(&w);
  costmodel::ModelBackend backend(&model);
  costmodel::WhatIfEngine engine(&w, &backend);
  const costmodel::Index k(w.query(0).attributes[0]);
  SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.CostWithIndex(0, k));
  }
  SetEnabled(false);
}
BENCHMARK(BM_WhatIfCachedCall)->Arg(0)->Arg(1);

}  // namespace
}  // namespace idxsel::obs

BENCHMARK_MAIN();
