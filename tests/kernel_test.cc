// Suite for idxsel::kernel, the flat cost-evaluation kernel (interned
// indexes, attribute masks, inverted posting lists, dense delta-costed H6
// steps) that every strategy prices through. What it decides is pinned
// elsewhere — tests/reference_test.cc checks H6 against the naive
// reference bit for bit, tests/simd_test.cc every strategy across SIMD
// dispatch levels — so this file covers the kernel's own surface:
//
//   * every strategy's reported costs and memory carry the bits of a
//     keyed-only recomputation of its selection;
//   * its idxsel.kernel.* counters reach the run report and are
//     deterministic across thread counts;
//   * parallel runs under faults and a live deadline keep the chaos
//     contract (robustness_test.cc);
//   * every dense engine accessor agrees bit for bit with its keyed twin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "kernel/kernel.h"
#include "rt/fault_injection.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using advisor::AdvisorOptions;
using advisor::Recommendation;
using advisor::StrategyKind;
using costmodel::CostModel;
using costmodel::ModelBackend;
using costmodel::WhatIfEngine;

struct Env {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;

  explicit Env(size_t tables = 3, size_t attrs = 12, size_t queries = 30,
               uint64_t seed = 7) {
    workload::ScalableWorkloadParams params;
    params.num_tables = tables;
    params.attributes_per_table = attrs;
    params.queries_per_table = queries;
    params.seed = seed;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
  }
};

/// Same deterministic fault mixes as robustness_test.cc's chaos matrix.
rt::FaultInjectionOptions ChaosOptions(uint64_t seed) {
  rt::FaultInjectionOptions fopts;
  fopts.seed = seed;
  fopts.nan_probability = 0.06 * static_cast<double>(seed % 3);
  fopts.inf_probability = 0.05 * static_cast<double>((seed / 3) % 3);
  fopts.negative_probability = 0.05 * static_cast<double>((seed / 9) % 3);
  fopts.fail_after_calls = 20 * seed;
  fopts.fail_burst = seed % 6;
  fopts.healthy_calls = seed % 4;
  return fopts;
}

TEST(ChaosEquivalenceTest, ParallelStructuralUnderFaultsAndDeadline) {
  // With four lanes and a live deadline, fault placement and expiry are
  // scheduler-dependent, so bit-identity is not required — but the kernel
  // path must uphold robustness_test.cc's chaos contract: no crash, no
  // garbage, a feasible incumbent, degraded flagged when the backend
  // misbehaved.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Env env(2, 10, 20, seed);
    rt::FaultInjectingBackend chaos(env.backend.get(), ChaosOptions(seed));
    WhatIfEngine engine(&env.w, &chaos);

    AdvisorOptions options;
    options.strategy = StrategyKind::kRecursive;
    options.threads = 4;
    options.budget_fraction = 0.25;
    options.time_limit_seconds = 0.010;

    const Result<Recommendation> rec = advisor::Recommend(engine, options);
    ASSERT_TRUE(rec.ok()) << "seed=" << seed << ": "
                          << rec.status().ToString();
    EXPECT_TRUE(std::isfinite(rec->cost_after)) << "seed=" << seed;
    EXPECT_TRUE(std::isfinite(rec->memory)) << "seed=" << seed;
    EXPECT_GE(rec->cost_after, 0.0);
    EXPECT_LE(rec->memory, rec->budget + 1e-6) << "seed=" << seed;
    if (!engine.health().ok()) {
      EXPECT_TRUE(rec->degraded);
    }
  }
}

// --------------------------------------------------------- kernel telemetry

/// Run-report counters of one Recommend() on a fresh engine.
std::map<std::string, uint64_t> RunCounters(Env& env,
                                            const AdvisorOptions& options) {
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  return rec.ok() ? rec->report.metrics.counters
                  : std::map<std::string, uint64_t>{};
}

TEST(KernelTelemetryTest, CountersPopulated) {
  // A workload/budget shape that reliably commits append (morph) steps —
  // the mask filter only fires on multi-attribute extension rounds, where
  // some posting-list query lacks full cover of the extended index (same
  // shape core_test.cc uses to provoke morphing).
  Env env(2, 12, 60);
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.5;
  options.threads = 1;

  const auto counters = RunCounters(env, options);
  // An H6 run of this size resolves thousands of costs through the dense
  // table and filters non-exploiting queries by mask; all three kernel
  // counters must show up in the run report.
  const auto fast = counters.find("idxsel.kernel.fast_path_hits");
  ASSERT_NE(fast, counters.end());
  EXPECT_GT(fast->second, 0u);
  const auto fallback = counters.find("idxsel.kernel.fallback_lookups");
  ASSERT_NE(fallback, counters.end());
  EXPECT_GT(fallback->second, 0u);
  const auto filtered = counters.find("idxsel.kernel.filtered_queries");
  ASSERT_NE(filtered, counters.end());
  EXPECT_GT(filtered->second, 0u);
}

TEST(KernelTelemetryTest, FilteredQueriesDeterministicAcrossThreads) {
  // kernel.filtered_queries is a pure function of the evaluated moves, so
  // even though parallel units tally it concurrently, the total matches
  // the serial run exactly.
  Env env(2, 12, 60);
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.5;

  options.threads = 1;
  const auto a = RunCounters(env, options);
  options.threads = 4;
  const auto b = RunCounters(env, options);
  for (const char* name :
       {"idxsel.kernel.fast_path_hits", "idxsel.kernel.fallback_lookups",
        "idxsel.kernel.filtered_queries"}) {
    const auto sa = a.find(name);
    const auto sb = b.find(name);
    ASSERT_NE(sa, a.end()) << name;
    ASSERT_NE(sb, b.end()) << name;
    EXPECT_EQ(sa->second, sb->second) << name;
  }
}

// ------------------------------------------------ strategies x keyed memo

/// The workload cost of `config` read only through the keyed memo, in the
/// order WorkloadCost promises: queries by ascending id, each at its
/// cheapest applicable index (or its base cost), then every index's
/// maintenance penalty.
double KeyedWorkloadCost(WhatIfEngine& engine,
                         const costmodel::IndexConfig& config) {
  const workload::Workload& w = engine.workload();
  double total = 0.0;
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    double best = engine.BaseCost(j);
    for (const costmodel::Index& k : config.indexes()) {
      if (!engine.Applicable(j, k)) continue;
      best = std::min(best, engine.CostWithIndex(j, k));
    }
    total += w.query(j).frequency * best;
  }
  for (const costmodel::Index& k : config.indexes()) {
    total += engine.MaintenancePenalty(k);
  }
  return total;
}

class StrategyEquivalenceTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategyEquivalenceTest, CostsMatchKeyedRecomputation) {
  // Every strategy prices through the dense kernel; its reported figures
  // must carry exactly the bits a keyed-only engine computes for the same
  // selection — also after four lanes filled the dense rows concurrently.
  Env env;
  AdvisorOptions options;
  options.strategy = GetParam();
  options.candidate_limit = 60;
  for (const size_t threads : {1u, 4u}) {
    options.threads = threads;
    const std::string label = std::string(advisor::StrategyName(GetParam())) +
                              " threads=" + std::to_string(threads);
    WhatIfEngine engine(&env.w, env.backend.get());
    const Result<Recommendation> rec = advisor::Recommend(engine, options);
    ASSERT_TRUE(rec.ok()) << label << ": " << rec.status().ToString();
    EXPECT_FALSE(rec->selection.empty()) << label;

    WhatIfEngine keyed(&env.w, env.backend.get());
    EXPECT_EQ(rec->cost_before,
              KeyedWorkloadCost(keyed, costmodel::IndexConfig{}))
        << label;
    EXPECT_EQ(rec->cost_after, KeyedWorkloadCost(keyed, rec->selection))
        << label;
    double memory = 0.0;
    for (const costmodel::Index& k : rec->selection.indexes()) {
      memory += keyed.IndexMemory(k);
    }
    EXPECT_EQ(rec->memory, memory) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalenceTest,
    ::testing::Values(StrategyKind::kRecursive, StrategyKind::kH1,
                      StrategyKind::kH2, StrategyKind::kH3,
                      StrategyKind::kH4, StrategyKind::kH4Skyline,
                      StrategyKind::kH5, StrategyKind::kCophy));

// ------------------------------------------------------- dense engine API

TEST(DenseEngineTest, DenseLookupsMatchKeyedLookups) {
  // Below the strategies: every dense accessor agrees bit-for-bit with
  // its keyed twin, on both cold and warm lookups.
  Env env;
  WhatIfEngine dense_engine(&env.w, env.backend.get());
  WhatIfEngine keyed_engine(&env.w, env.backend.get());

  for (workload::AttributeId a = 0; a < env.w.num_attributes(); a += 3) {
    const costmodel::Index k(a);
    const kernel::IndexId id = dense_engine.InternIndex(k);
    EXPECT_EQ(dense_engine.IndexMemoryDense(id), keyed_engine.IndexMemory(k));
    EXPECT_EQ(dense_engine.MaintenancePenaltyDense(id),
              keyed_engine.MaintenancePenalty(k));
    const auto& posting = env.w.queries_with(k.leading());
    for (uint32_t s = 0; s < posting.size(); ++s) {
      const double cold =
          dense_engine.CostWithIndexDense(posting[s], id, s);
      EXPECT_EQ(cold, keyed_engine.CostWithIndex(posting[s], k))
          << "attr " << a << " slot " << s;
      // Warm: the dense row answers without consulting the backend, and
      // counts a cache hit exactly like the hashed cache would.
      const uint64_t hits_before = dense_engine.stats().cache_hits;
      EXPECT_EQ(dense_engine.CostWithIndexDense(posting[s], id, s), cold);
      EXPECT_EQ(dense_engine.stats().cache_hits, hits_before + 1);
    }
  }
  EXPECT_EQ(dense_engine.stats().calls, keyed_engine.stats().calls);
}

TEST(DenseEngineTest, MaterializeRoundTripsInterning) {
  Env env;
  WhatIfEngine engine(&env.w, env.backend.get());
  const costmodel::Index k(std::vector<workload::AttributeId>{4, 1, 9});
  const kernel::IndexId id = engine.InternIndex(k);
  EXPECT_TRUE(engine.MaterializeIndex(id) == k);
  EXPECT_EQ(engine.InternIndex(k), id);  // idempotent
}

}  // namespace
}  // namespace idxsel
