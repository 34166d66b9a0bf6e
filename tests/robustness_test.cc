// Robustness suite for idxsel::rt: deadline/cancellation semantics, the
// fault-injecting backend, WhatIfEngine sanitization, and a chaos matrix
// that drives every strategy through fault injection plus tight deadlines.
// Companion to doc/robustness.md.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "advisor/advisor.h"
#include "common/deadline.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "rt/fault_injection.h"
#include "workload/scalable_generator.h"

namespace idxsel::rt {
namespace {

using advisor::AdvisorOptions;
using advisor::FallbackPolicy;
using advisor::Recommend;
using advisor::StrategyKind;
using advisor::StrategyName;
using costmodel::CostModel;
using costmodel::Index;
using costmodel::IndexConfig;
using costmodel::ModelBackend;
using costmodel::WhatIfEngine;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------ Deadline

TEST(DeadlineTest, DefaultIsUnbounded) {
  Deadline d;
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_seconds(), kInf);
}

TEST(DeadlineTest, InfiniteBudgetStaysUnbounded) {
  const Deadline d = Deadline::After(kInf);
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, NonPositiveBudgetExpiresImmediately) {
  EXPECT_TRUE(Deadline::After(0.0).expired());
  EXPECT_TRUE(Deadline::After(-3.5).expired());
  EXPECT_EQ(Deadline::After(0.0).remaining_seconds(), 0.0);
}

TEST(DeadlineTest, GenerousBudgetNotExpired) {
  const Deadline d = Deadline::After(3600.0);
  EXPECT_TRUE(d.bounded());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 3000.0);
}

TEST(DeadlineTest, CancellationTokenFiresAndResets) {
  CancellationToken token;
  Deadline d;  // unbounded, but carries the token
  d.set_cancellation(&token);
  EXPECT_FALSE(d.expired());
  token.RequestCancel();
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_seconds(), 0.0);
  token.Reset();
  EXPECT_FALSE(d.expired());
}

TEST(DeadlinePollerTest, StrideAmortizesClockReads) {
  const Deadline dead = Deadline::After(0.0);
  DeadlinePoller poller(dead, /*stride=*/64);
  // The first stride-1 calls return false without consulting the clock.
  for (int i = 0; i < 63; ++i) {
    EXPECT_FALSE(poller.Expired()) << "call " << i;
    EXPECT_FALSE(poller.expired());
  }
  // Call 64 hits the clock and latches.
  EXPECT_TRUE(poller.Expired());
  EXPECT_TRUE(poller.expired());
  EXPECT_TRUE(poller.Expired());  // stays expired
}

TEST(DeadlinePollerTest, StrideOneChecksEveryCall) {
  const Deadline dead = Deadline::After(0.0);
  DeadlinePoller poller(dead, /*stride=*/1);
  EXPECT_TRUE(poller.Expired());
}

TEST(DeadlinePollerTest, UnboundedDeadlineNeverExpires) {
  const Deadline dead;
  DeadlinePoller poller(dead);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(poller.Expired());
}

// ------------------------------------------------- FaultInjectingBackend

struct TinyEnv {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;

  explicit TinyEnv(uint64_t seed = 7) {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 10;
    params.queries_per_table = 20;
    params.seed = seed;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
  }
};

TEST(FaultInjectionTest, ZeroProbabilitiesPassThrough) {
  TinyEnv env;
  FaultInjectionOptions fopts;
  FaultInjectingBackend chaos(env.backend.get(), fopts);
  for (workload::QueryId j = 0; j < env.w.num_queries(); ++j) {
    EXPECT_DOUBLE_EQ(chaos.BaseCost(j), env.backend->BaseCost(j));
  }
  EXPECT_EQ(chaos.stats().total_injected(), 0u);
  EXPECT_EQ(chaos.stats().calls, env.w.num_queries());
}

TEST(FaultInjectionTest, CertainNanCorruptsEveryCall) {
  TinyEnv env;
  FaultInjectionOptions fopts;
  fopts.nan_probability = 1.0;
  FaultInjectingBackend chaos(env.backend.get(), fopts);
  for (workload::QueryId j = 0; j < 10; ++j) {
    EXPECT_TRUE(std::isnan(chaos.BaseCost(j)));
  }
  EXPECT_EQ(chaos.stats().injected_nan, 10u);
}

TEST(FaultInjectionTest, HealthyWarmupIsTruthful) {
  TinyEnv env;
  FaultInjectionOptions fopts;
  fopts.nan_probability = 1.0;
  fopts.healthy_calls = 5;
  FaultInjectingBackend chaos(env.backend.get(), fopts);
  for (workload::QueryId j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(chaos.BaseCost(j), env.backend->BaseCost(j));
  }
  EXPECT_TRUE(std::isnan(chaos.BaseCost(5)));
}

TEST(FaultInjectionTest, OutageWindowIsExact) {
  TinyEnv env;
  FaultInjectionOptions fopts;
  fopts.fail_after_calls = 2;
  fopts.fail_burst = 3;
  FaultInjectingBackend chaos(env.backend.get(), fopts);
  for (workload::QueryId j = 0; j < 8; ++j) {
    const double v = chaos.BaseCost(j);
    if (j >= 2 && j < 5) {
      EXPECT_TRUE(std::isnan(v)) << "call " << j;
    } else {
      EXPECT_DOUBLE_EQ(v, env.backend->BaseCost(j)) << "call " << j;
    }
  }
  EXPECT_EQ(chaos.stats().injected_outage, 3u);
}

TEST(FaultInjectionTest, SameSeedSameFaultSequence) {
  TinyEnv env;
  FaultInjectionOptions fopts;
  fopts.seed = 42;
  fopts.nan_probability = 0.2;
  fopts.inf_probability = 0.2;
  fopts.negative_probability = 0.2;
  FaultInjectingBackend a(env.backend.get(), fopts);
  FaultInjectingBackend b(env.backend.get(), fopts);
  for (workload::QueryId j = 0; j < env.w.num_queries(); ++j) {
    const double va = a.BaseCost(j);
    const double vb = b.BaseCost(j);
    // Bitwise-identical fault decisions (NaN != NaN, so compare via bits).
    EXPECT_EQ(std::isnan(va), std::isnan(vb)) << j;
    if (!std::isnan(va)) {
      EXPECT_DOUBLE_EQ(va, vb) << j;
    }
  }
  EXPECT_EQ(a.stats().injected_nan, b.stats().injected_nan);
  EXPECT_EQ(a.stats().injected_inf, b.stats().injected_inf);
  EXPECT_EQ(a.stats().injected_negative, b.stats().injected_negative);
}

TEST(FaultInjectionTest, NegativeInjectionFlipsSign) {
  TinyEnv env;
  FaultInjectionOptions fopts;
  fopts.negative_probability = 1.0;
  FaultInjectingBackend chaos(env.backend.get(), fopts);
  const double truthful = env.backend->BaseCost(0);
  ASSERT_GT(truthful, 0.0);
  EXPECT_DOUBLE_EQ(chaos.BaseCost(0), -truthful);
}

// ------------------------------------------------ WhatIfEngine sanitization

/// Backend whose answers are overridable per method; unset methods
/// delegate to the truthful inner backend.
struct EvilBackend : public costmodel::WhatIfBackend {
  const costmodel::WhatIfBackend* inner;
  bool evil_base = false;
  bool evil_cost = false;
  bool evil_memory = false;
  bool evil_maintenance = false;
  double evil_value = kNaN;

  explicit EvilBackend(const costmodel::WhatIfBackend* truthful)
      : inner(truthful) {}

  double BaseCost(costmodel::QueryId j) const override {
    return evil_base ? evil_value : inner->BaseCost(j);
  }
  double CostWithIndex(costmodel::QueryId j, const Index& k) const override {
    return evil_cost ? evil_value : inner->CostWithIndex(j, k);
  }
  double IndexMemory(const Index& k) const override {
    return evil_memory ? evil_value : inner->IndexMemory(k);
  }
  double MaintenanceCost(costmodel::QueryId j, const Index& k) const override {
    return evil_maintenance ? evil_value : inner->MaintenanceCost(j, k);
  }
};

TEST(SanitizeTest, HealthyBackendStaysHealthy) {
  TinyEnv env;
  WhatIfEngine engine(&env.w, env.backend.get());
  engine.WorkloadCost(IndexConfig{});
  EXPECT_TRUE(engine.health().ok());
  EXPECT_EQ(engine.stats().sanitized, 0u);
}

TEST(SanitizeTest, NanBaseCostClampedToZero) {
  TinyEnv env;
  EvilBackend evil(env.backend.get());
  evil.evil_base = true;
  evil.evil_value = kNaN;
  WhatIfEngine engine(&env.w, &evil);
  EXPECT_DOUBLE_EQ(engine.BaseCost(0), 0.0);
  EXPECT_GE(engine.stats().sanitized, 1u);
  EXPECT_FALSE(engine.health().ok());
  EXPECT_EQ(engine.health().code(), StatusCode::kInternal);
  EXPECT_NE(engine.health().message().find("NaN"), std::string::npos);
}

TEST(SanitizeTest, GarbageIndexCostFallsBackToBaseCost) {
  TinyEnv env;
  EvilBackend evil(env.backend.get());
  evil.evil_cost = true;
  for (double garbage : {kNaN, kInf, -5.0}) {
    evil.evil_value = garbage;
    WhatIfEngine engine(&env.w, &evil);
    // Find an applicable (query, index) pair so the backend is consulted.
    bool checked = false;
    for (workload::QueryId j = 0; j < env.w.num_queries() && !checked; ++j) {
      for (workload::AttributeId i = 0; i < env.w.num_attributes(); ++i) {
        const Index k(i);
        if (!engine.Applicable(j, k)) continue;
        EXPECT_DOUBLE_EQ(engine.CostWithIndex(j, k), engine.BaseCost(j));
        checked = true;
        break;
      }
    }
    ASSERT_TRUE(checked);
    EXPECT_FALSE(engine.health().ok());
  }
}

TEST(SanitizeTest, GarbageIndexMemoryBecomesInfinite) {
  TinyEnv env;
  EvilBackend evil(env.backend.get());
  evil.evil_memory = true;
  for (double garbage : {kNaN, -1.0}) {
    evil.evil_value = garbage;
    WhatIfEngine engine(&env.w, &evil);
    // +infinity: the index can never fit a finite budget, and the cached
    // value keeps every later feasibility check consistent.
    EXPECT_EQ(engine.IndexMemory(Index(0)), kInf);
    EXPECT_EQ(engine.IndexMemory(Index(0)), kInf);  // cached
    EXPECT_GE(engine.stats().sanitized, 1u);
  }
}

TEST(SanitizeTest, GarbageMaintenanceCostClampedToZero) {
  TinyEnv env;
  EvilBackend evil(env.backend.get());
  evil.evil_maintenance = true;
  evil.evil_value = -100.0;
  WhatIfEngine engine(&env.w, &evil);
  EXPECT_DOUBLE_EQ(engine.MaintenancePenalty(Index(0)), 0.0);
}

TEST(SanitizeTest, WorkloadCostStaysFiniteUnderTotalNanBackend) {
  TinyEnv env;
  FaultInjectionOptions fopts;
  fopts.nan_probability = 1.0;
  FaultInjectingBackend chaos(env.backend.get(), fopts);
  WhatIfEngine engine(&env.w, &chaos);
  IndexConfig config;
  config.Insert(Index(0));
  const double cost = engine.WorkloadCost(config);
  EXPECT_TRUE(std::isfinite(cost));
  EXPECT_GE(cost, 0.0);
  EXPECT_FALSE(engine.health().ok());
}

// ----------------------------------------------------------- chaos matrix

/// Deterministically derives a fault mix from the chaos seed so the 13
/// seeds cover NaN-heavy, Inf-heavy, negative, outage, and latency mixes.
FaultInjectionOptions ChaosOptions(uint64_t seed) {
  FaultInjectionOptions fopts;
  fopts.seed = seed;
  fopts.nan_probability = 0.06 * static_cast<double>(seed % 3);
  fopts.inf_probability = 0.05 * static_cast<double>((seed / 3) % 3);
  fopts.negative_probability = 0.05 * static_cast<double>((seed / 9) % 3);
  fopts.fail_after_calls = 20 * seed;
  fopts.fail_burst = seed % 6;
  fopts.healthy_calls = seed % 4;
  if (seed == 13) {
    // One latency-heavy seed: short stalls, enough to trip the deadline.
    fopts.latency_probability = 0.05;
    fopts.latency_seconds = 1e-4;
  }
  return fopts;
}

class ChaosTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, uint64_t>> {};

TEST_P(ChaosTest, NoCrashNoGarbageUnderFaultsAndDeadline) {
  const StrategyKind strategy = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  TinyEnv env(seed);
  FaultInjectingBackend chaos(env.backend.get(), ChaosOptions(seed));
  WhatIfEngine engine(&env.w, &chaos);

  AdvisorOptions options;
  options.strategy = strategy;
  options.budget_fraction = 0.25;
  options.time_limit_seconds = 0.010;  // 10 ms
  options.solver.mip_gap = 0.05;

  auto rec = Recommend(engine, options);
  ASSERT_TRUE(rec.ok()) << StrategyName(strategy) << " seed=" << seed << ": "
                        << rec.status().ToString();
  // No garbage leaks into the recommendation, whatever the backend did.
  EXPECT_TRUE(std::isfinite(rec->budget)) << StrategyName(strategy);
  EXPECT_TRUE(std::isfinite(rec->cost_before)) << StrategyName(strategy);
  EXPECT_TRUE(std::isfinite(rec->cost_after)) << StrategyName(strategy);
  EXPECT_TRUE(std::isfinite(rec->memory)) << StrategyName(strategy);
  EXPECT_GE(rec->cost_after, 0.0);
  // The incumbent respects the (sanitized) budget.
  EXPECT_LE(rec->memory, rec->budget + 1e-6)
      << StrategyName(strategy) << " seed=" << seed;
  // A run whose backend actually misbehaved must be flagged degraded.
  if (!engine.health().ok()) {
    EXPECT_TRUE(rec->degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesTimesSeeds, ChaosTest,
    ::testing::Combine(
        ::testing::Values(StrategyKind::kRecursive, StrategyKind::kH1,
                          StrategyKind::kH2, StrategyKind::kH3,
                          StrategyKind::kH4, StrategyKind::kH4Skyline,
                          StrategyKind::kH5, StrategyKind::kCophy),
        ::testing::Range<uint64_t>(1, 14)));

// Same chaos, but with the pipeline explicitly parallel: four lanes
// hammering the (thread-safe) fault-injecting backend through the sharded
// caches. Fault *placement* is scheduler-dependent here — the assertions
// are the structural ones (no crash, no garbage, feasible incumbent),
// which must hold for every interleaving.
class ParallelChaosTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, uint64_t>> {};

TEST_P(ParallelChaosTest, FourThreadsNoCrashNoGarbage) {
  const StrategyKind strategy = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  TinyEnv env(seed);
  FaultInjectingBackend chaos(env.backend.get(), ChaosOptions(seed));
  WhatIfEngine engine(&env.w, &chaos);

  AdvisorOptions options;
  options.strategy = strategy;
  options.threads = 4;
  options.budget_fraction = 0.25;
  options.time_limit_seconds = 0.010;
  options.solver.mip_gap = 0.05;

  auto rec = Recommend(engine, options);
  ASSERT_TRUE(rec.ok()) << StrategyName(strategy) << " seed=" << seed;
  EXPECT_TRUE(std::isfinite(rec->cost_after)) << StrategyName(strategy);
  EXPECT_TRUE(std::isfinite(rec->memory)) << StrategyName(strategy);
  EXPECT_GE(rec->cost_after, 0.0);
  EXPECT_LE(rec->memory, rec->budget + 1e-6)
      << StrategyName(strategy) << " seed=" << seed;
  if (!engine.health().ok()) {
    EXPECT_TRUE(rec->degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesTimesSeeds, ParallelChaosTest,
    ::testing::Combine(::testing::Values(StrategyKind::kRecursive,
                                         StrategyKind::kH5,
                                         StrategyKind::kCophy),
                       ::testing::Range<uint64_t>(1, 6)));

TEST(ParallelChaosTest, PortfolioRaceSurvivesFaults) {
  // The full tentpole under chaos: H6 raced against H4 and H5 on four
  // threads, against a misbehaving backend with a tight deadline. The
  // winner must still be feasible and finite.
  TinyEnv env(5);
  FaultInjectingBackend chaos(env.backend.get(), ChaosOptions(5));
  WhatIfEngine engine(&env.w, &chaos);

  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.portfolio = {StrategyKind::kH4, StrategyKind::kH5};
  options.threads = 4;
  options.candidate_limit = 40;
  options.budget_fraction = 0.25;
  options.time_limit_seconds = 0.020;

  auto rec = Recommend(engine, options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(std::isfinite(rec->cost_after));
  EXPECT_LE(rec->memory, rec->budget + 1e-6);
  EXPECT_GE(rec->cost_after, 0.0);
}

// ------------------------------------------- Fig. 2 workload acceptance

class ScalableDeadlineTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(ScalableDeadlineTest, FiftyMsDeadlineYieldsTimeoutIncumbent) {
  // The paper's Fig. 2 scalable workload (50 attributes and 100 queries
  // per table) is far too large for any strategy to finish in 50 ms —
  // every one must cut over to its anytime path and return a feasible
  // incumbent flagged Timeout. At the default 10 tables memoized H6
  // finishes in about 40 ms on 4 cores, so its leg runs 100 tables
  // (about 1 s to finish unbounded).
  workload::ScalableWorkloadParams params;  // defaults = Fig. 2 shape
  if (GetParam() == StrategyKind::kRecursive) params.num_tables = 100;
  workload::Workload w = workload::GenerateScalableWorkload(params);
  CostModel model(&w);
  ModelBackend backend(&model);
  WhatIfEngine engine(&w, &backend);

  AdvisorOptions options;
  options.strategy = GetParam();
  options.budget_fraction = 0.25;
  options.time_limit_seconds = 0.050;
  options.solver.mip_gap = 0.05;

  auto rec = Recommend(engine, options);
  ASSERT_TRUE(rec.ok()) << StrategyName(GetParam());
  EXPECT_EQ(rec->status.code(), StatusCode::kTimeout)
      << StrategyName(GetParam()) << ": " << rec->status.ToString();
  EXPECT_TRUE(rec->dnf);
  EXPECT_TRUE(rec->degraded);
  EXPECT_LE(rec->memory, rec->budget + 1e-6);
  EXPECT_TRUE(std::isfinite(rec->cost_after));
  // Terminates promptly: the strategy stops within a poll stride of the
  // wire; the generous bound absorbs sanitizer builds and the unbounded
  // fallback pass.
  EXPECT_LT(rec->runtime_seconds, 30.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ScalableDeadlineTest,
    ::testing::Values(StrategyKind::kRecursive, StrategyKind::kH1,
                      StrategyKind::kH2, StrategyKind::kH3,
                      StrategyKind::kH4, StrategyKind::kH4Skyline,
                      StrategyKind::kH5, StrategyKind::kCophy));

}  // namespace
}  // namespace idxsel::rt
