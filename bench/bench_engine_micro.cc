// google-benchmark micro-benchmarks of the column-store engine: the
// scan-vs-probe crossover that motivates secondary indexes in the first
// place (Kester et al., cited as [1] in the paper), on a 200k-row table and
// on one of bench_e2e deploy-measured's shape — 20k rows, where 93 % of the
// index builds are one-column and 7 % two-column, and the first predicate
// of a scan is selective.
//
// The first argument of the parameterized benchmarks is the table's row
// count: BM_SequentialScan/20000/0 scans a selective column (d = 15000),
// BM_SequentialScan/20000/3 an unselective one (d = 4), where every block
// of the scan matches.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "engine/column_store.h"
#include "engine/composite_index.h"
#include "engine/executor.h"

namespace idxsel::engine {
namespace {

constexpr int64_t kRows = 200'000;
constexpr int64_t kDeployRows = 20'000;

// Column selectivities from near-unique to 25 %.
const std::vector<uint32_t> kDistinct = {100'000, 1'000, 100, 4};
const std::vector<uint32_t> kDeployDistinct = {15'000, 1'000, 100, 4};

/// The 200k-row table, or the 20k-row one of deploy-measured's shape.
const ColumnTable& SharedTable(int64_t rows = kRows) {
  static Rng rng(7);
  static ColumnTable table(kRows, kDistinct, rng);
  static Rng deploy_rng(11);
  static ColumnTable deploy(kDeployRows, kDeployDistinct, deploy_rng);
  return rows == kDeployRows ? deploy : table;
}

Executor SharedExecutor(int64_t rows = kRows) {
  return Executor(&SharedTable(rows),
                  rows == kDeployRows ? kDeployDistinct : kDistinct);
}

void BM_SequentialScan(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const uint32_t column = static_cast<uint32_t>(state.range(1));
  Executor executor = SharedExecutor(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.ScanOnly({{column, 1}}).rows_touched);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_SequentialScan)
    ->ArgsProduct({{kRows}, {0, 1, 2, 3}})
    ->Args({kDeployRows, 0})
    ->Args({kDeployRows, 3});

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
  const int64_t rows = state.range(0);
  const uint32_t width = static_cast<uint32_t>(state.range(1));
  std::vector<uint32_t> columns;
  for (uint32_t c = 0; c < width; ++c) columns.push_back(c);
  for (auto _ : state) {
    const CompositeIndex index(&SharedTable(rows), columns);
    benchmark::DoNotOptimize(index.memory_bytes());
  }
}
BENCHMARK(BM_IndexBuild)
    ->ArgsProduct({{kRows}, {1, 2, 3, 4}})
    ->ArgsProduct({{kDeployRows}, {1, 2}});

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
