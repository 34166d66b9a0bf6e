// google-benchmark micro-benchmarks of the column-store engine: the
// scan-vs-probe crossover that motivates secondary indexes in the first
// place (Kester et al., cited as [1] in the paper).

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "engine/column_store.h"
#include "engine/composite_index.h"
#include "engine/executor.h"

namespace idxsel::engine {
namespace {

constexpr uint64_t kRows = 200'000;

const ColumnTable& SharedTable() {
  static Rng rng(7);
  // Column selectivities from near-unique to 25%.
  static ColumnTable table(kRows, {100'000, 1'000, 100, 4}, rng);
  return table;
}

Executor SharedExecutor() {
  return Executor(&SharedTable(), {100'000, 1'000, 100, 4});
}

void BM_SequentialScan(benchmark::State& state) {
  const uint32_t column = static_cast<uint32_t>(state.range(0));
  Executor executor = SharedExecutor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.ScanOnly({{column, 1}}).rows_touched);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
}
BENCHMARK(BM_SequentialScan)->DenseRange(0, 3, 1);

void BM_IndexProbe(benchmark::State& state) {
  const uint32_t column = static_cast<uint32_t>(state.range(0));
  Executor executor = SharedExecutor();
  const CompositeIndex index(&SharedTable(), {column});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.WithIndex({{column, 1}}, index).rows_touched);
  }
}
BENCHMARK(BM_IndexProbe)->DenseRange(0, 3, 1);

void BM_IndexBuild(benchmark::State& state) {
  const uint32_t width = static_cast<uint32_t>(state.range(0));
  std::vector<uint32_t> columns;
  for (uint32_t c = 0; c < width; ++c) columns.push_back(c);
  for (auto _ : state) {
    const CompositeIndex index(&SharedTable(), columns);
    benchmark::DoNotOptimize(index.memory_bytes());
  }
}
BENCHMARK(BM_IndexBuild)->DenseRange(1, 4, 1);

void BM_CompositeProbeVsResidual(benchmark::State& state) {
  // Index (3) is unselective; the residual filter does the heavy lifting —
  // the regime where a multi-attribute index would pay off.
  Executor executor = SharedExecutor();
  const CompositeIndex index(&SharedTable(), {3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.WithIndex({{3, 1}, {0, 1}}, index).rows_touched);
  }
}
BENCHMARK(BM_CompositeProbeVsResidual);

void BM_MultiAttributeProbe(benchmark::State& state) {
  Executor executor = SharedExecutor();
  const CompositeIndex index(&SharedTable(), {3, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.WithIndex({{3, 1}, {0, 1}}, index).rows_touched);
  }
}
BENCHMARK(BM_MultiAttributeProbe);

}  // namespace
}  // namespace idxsel::engine

BENCHMARK_MAIN();
