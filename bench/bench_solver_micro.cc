// google-benchmark micro-benchmarks of the solver kernels: branch-and-bound
// and its greedy seed on random selection problems.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "mip/branch_and_bound.h"

namespace idxsel {
namespace {

mip::Problem RandomSelectionProblem(uint64_t seed, size_t queries,
                                    size_t candidates) {
  Rng rng(seed);
  mip::Problem p;
  p.query_weight.resize(queries);
  p.base_cost.resize(queries);
  for (size_t j = 0; j < queries; ++j) {
    p.query_weight[j] = rng.Uniform(1.0, 10.0);
    p.base_cost[j] = rng.Uniform(50.0, 100.0);
  }
  p.candidate_costs.resize(candidates);
  p.candidate_memory.resize(candidates);
  double total = 0.0;
  for (size_t k = 0; k < candidates; ++k) {
    p.candidate_memory[k] = rng.Uniform(1.0, 10.0);
    total += p.candidate_memory[k];
    const int touches = static_cast<int>(rng.UniformInt(1, 5));
    for (int u = 0; u < touches; ++u) {
      const auto j = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(queries) - 1));
      p.candidate_costs[k].push_back(
          mip::QueryCost{j, rng.Uniform(1.0, p.base_cost[j])});
    }
  }
  p.budget = 0.3 * total;
  p.Canonicalize();
  return p;
}

void BM_BranchAndBoundExact(benchmark::State& state) {
  const size_t candidates = static_cast<size_t>(state.range(0));
  const mip::Problem p = RandomSelectionProblem(11, candidates * 2,
                                                candidates);
  for (auto _ : state) {
    const mip::SolveResult r = mip::Solve(p);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BranchAndBoundExact)->Arg(20)->Arg(40)->Arg(80);

void BM_BranchAndBoundGap5(benchmark::State& state) {
  const size_t candidates = static_cast<size_t>(state.range(0));
  const mip::Problem p = RandomSelectionProblem(11, candidates * 2,
                                                candidates);
  mip::SolveOptions options;
  options.mip_gap = 0.05;
  for (auto _ : state) {
    const mip::SolveResult r = mip::Solve(p, options);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BranchAndBoundGap5)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_GreedyByDensity(benchmark::State& state) {
  const size_t candidates = static_cast<size_t>(state.range(0));
  const mip::Problem p = RandomSelectionProblem(13, candidates * 2,
                                                candidates);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mip::GreedyByDensity(p).size());
  }
}
BENCHMARK(BM_GreedyByDensity)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace idxsel

BENCHMARK_MAIN();
