// Determinism regression suite for the parallel pipeline: every strategy
// must return a bit-identical Recommendation — same indexes, same trace,
// same objective — at 1, 2, and 8 threads, including when an expired
// deadline cuts the run short. This is the contract doc/parallelism.md
// promises; any nondeterminism here is a bug, not a tolerance issue, so
// comparisons use exact equality on doubles throughout.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "advisor/advisor.h"
#include "common/telemetry.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "mip/branch_and_bound.h"
#include "mip/problem.h"
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

  explicit Env(size_t tables = 3, size_t attrs = 12, size_t queries = 30) {
    workload::ScalableWorkloadParams params;
    params.num_tables = tables;
    params.attributes_per_table = attrs;
    params.queries_per_table = queries;
    params.seed = 7;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
  }
};

void ExpectSameRecommendation(const Recommendation& a,
                              const Recommendation& b, size_t threads) {
  EXPECT_TRUE(a.selection == b.selection) << "threads=" << threads;
  EXPECT_EQ(a.cost_after, b.cost_after) << "threads=" << threads;
  EXPECT_EQ(a.memory, b.memory) << "threads=" << threads;
  EXPECT_EQ(a.status.code(), b.status.code()) << "threads=" << threads;
  EXPECT_EQ(a.executed_strategy, b.executed_strategy)
      << "threads=" << threads;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << "threads=" << threads;
  for (size_t s = 0; s < a.trace.size(); ++s) {
    EXPECT_TRUE(a.trace[s].after == b.trace[s].after)
        << "threads=" << threads << " step " << s;
    EXPECT_EQ(a.trace[s].kind, b.trace[s].kind)
        << "threads=" << threads << " step " << s;
    EXPECT_EQ(a.trace[s].ratio, b.trace[s].ratio)
        << "threads=" << threads << " step " << s;
    EXPECT_EQ(a.trace[s].objective_after, b.trace[s].objective_after)
        << "threads=" << threads << " step " << s;
  }
}

/// Runs `options` at 1 thread (reference) and at 2 and 8 threads, and
/// demands bit-identical recommendations.
void CheckAcrossThreadCounts(Env& env, AdvisorOptions options) {
  options.threads = 1;
  WhatIfEngine ref_engine(&env.w, env.backend.get());
  const Result<Recommendation> ref =
      advisor::Recommend(ref_engine, options);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (size_t threads : {2u, 8u}) {
    options.threads = threads;
    WhatIfEngine engine(&env.w, env.backend.get());
    const Result<Recommendation> got = advisor::Recommend(engine, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRecommendation(*ref, *got, threads);
    // The what-if accounting must be deterministic too: the concurrent
    // cache computes every key exactly once, so parallel lanes issue the
    // same number of backend calls as the serial run.
    EXPECT_EQ(ref->whatif_calls, got->whatif_calls) << "threads=" << threads;
  }
}

TEST(DeterminismTest, H6AcrossThreadCounts) {
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  CheckAcrossThreadCounts(env, options);
}

TEST(DeterminismTest, H6WithPairStepsAcrossThreadCounts) {
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.recursive.pair_steps = true;
  options.recursive.n_best_singles = 10;
  CheckAcrossThreadCounts(env, options);
}

TEST(DeterminismTest, H6MultiIndexEvalAcrossThreadCounts) {
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.recursive.multi_index_eval = true;
  CheckAcrossThreadCounts(env, options);
}

TEST(DeterminismTest, H4AcrossThreadCounts) {
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kH4;
  options.candidate_limit = 60;
  CheckAcrossThreadCounts(env, options);
}

TEST(DeterminismTest, H5AcrossThreadCounts) {
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kH5;
  options.candidate_limit = 60;
  CheckAcrossThreadCounts(env, options);
}

TEST(DeterminismTest, CophyAcrossThreadCounts) {
  Env env(2, 10, 20);
  AdvisorOptions options;
  options.strategy = StrategyKind::kCophy;
  options.candidate_limit = 50;
  CheckAcrossThreadCounts(env, options);
}

TEST(DeterminismTest, ExpiredDeadlineAcrossThreadCounts) {
  // An already-expired deadline is the only timing-independent way to
  // exercise the deadline path: every thread count must return the same
  // (empty or pre-loop) incumbent with the same Timeout status.
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.time_limit_seconds = 0.0;
  options.fallback = advisor::FallbackPolicy::kNone;

  options.threads = 1;
  WhatIfEngine ref_engine(&env.w, env.backend.get());
  const Result<Recommendation> ref = advisor::Recommend(ref_engine, options);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->status.code(), StatusCode::kTimeout);
  EXPECT_TRUE(ref->dnf);

  for (size_t threads : {2u, 8u}) {
    options.threads = threads;
    WhatIfEngine engine(&env.w, env.backend.get());
    const Result<Recommendation> got = advisor::Recommend(engine, options);
    ASSERT_TRUE(got.ok());
    ExpectSameRecommendation(*ref, *got, threads);
  }
}

TEST(DeterminismTest, SelectorDirectAcrossThreadCounts) {
  // Below the advisor: core::SelectRecursive itself, where the
  // bit-identical guarantee originates (parallel evaluation, serial
  // reduction).
  Env env;
  core::RecursiveOptions options;
  options.budget = env.model->Budget(0.25);
  options.threads = 1;
  WhatIfEngine ref_engine(&env.w, env.backend.get());
  const core::RecursiveResult ref =
      core::SelectRecursive(ref_engine, options);

  for (size_t threads : {2u, 8u}) {
    options.threads = threads;
    WhatIfEngine engine(&env.w, env.backend.get());
    const core::RecursiveResult got = core::SelectRecursive(engine, options);
    EXPECT_TRUE(ref.selection == got.selection) << "threads=" << threads;
    EXPECT_EQ(ref.objective, got.objective) << "threads=" << threads;
    EXPECT_EQ(ref.memory, got.memory) << "threads=" << threads;
    EXPECT_EQ(ref.whatif_calls, got.whatif_calls) << "threads=" << threads;
    ASSERT_EQ(ref.frontier.size(), got.frontier.size());
    for (size_t s = 0; s < ref.frontier.size(); ++s) {
      EXPECT_EQ(ref.frontier[s], got.frontier[s]) << "step " << s;
    }
    ASSERT_EQ(ref.runners_up.size(), got.runners_up.size());
    for (size_t s = 0; s < ref.runners_up.size(); ++s) {
      EXPECT_TRUE(ref.runners_up[s].after == got.runners_up[s].after)
          << "runner-up " << s;
    }
  }
}

TEST(DeterminismTest, OnlyRemark2EvaluationFansOut) {
  // Plain and pair-step H6 run serially at any thread count: a memoized
  // round has too little work to pay for threads. Only the Remark-2
  // evaluators start threads (doc/parallelism.md).
  Env env;
  const auto fan_outs = [] {
    return telemetry::Value(telemetry::Slot::kExecParallelFors);
  };
  core::RecursiveOptions options;
  options.budget = env.model->Budget(0.25);
  options.threads = 4;
  for (const bool pairs : {false, true}) {
    options.pair_steps = pairs;
    WhatIfEngine engine(&env.w, env.backend.get());
    const int64_t before = fan_outs();
    const core::RecursiveResult got = core::SelectRecursive(engine, options);
    EXPECT_GE(got.trace.size(), 2u) << "pair_steps=" << pairs;
    EXPECT_EQ(fan_outs(), before) << "pair_steps=" << pairs;
  }

  options.pair_steps = false;
  options.multi_index_eval = true;
  WhatIfEngine engine(&env.w, env.backend.get());
  const int64_t before = fan_outs();
  const core::RecursiveResult got = core::SelectRecursive(engine, options);
  EXPECT_GE(got.trace.size(), 2u);
  EXPECT_GT(fan_outs(), before);
}

TEST(DeterminismTest, MipSolveDirectAcrossThreadCounts) {
  // The solver below CoPhy: parallel subtree exploration must return the
  // serial selection and objective exactly (fixed deterministic split +
  // bound-safe shared pruning + DFS-ordered reduction).
  mip::Problem p;
  const size_t kQueries = 50;
  uint64_t state = 99;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 11) & 0xfffff) / 1048576.0;
  };
  p.query_weight.assign(kQueries, 1.0);
  p.base_cost.resize(kQueries);
  for (size_t j = 0; j < kQueries; ++j) p.base_cost[j] = 60.0 + 80.0 * next();
  p.candidate_costs.resize(40);
  p.candidate_memory.resize(40);
  for (size_t k = 0; k < 40; ++k) {
    const size_t touched = 2 + static_cast<size_t>(next() * 5);
    for (size_t t = 0; t < touched; ++t) {
      const uint32_t j = static_cast<uint32_t>(next() * kQueries);
      p.candidate_costs[k].push_back(
          {j, p.base_cost[j] * (0.25 + 0.5 * next())});
    }
    p.candidate_memory[k] = 1.0 + 8.0 * next();
  }
  p.budget = 20.0;
  p.Canonicalize();

  mip::SolveOptions serial;
  serial.threads = 1;
  const mip::SolveResult ref = mip::Solve(p, serial);
  ASSERT_TRUE(ref.status.ok());
  ASSERT_TRUE(ref.proven_optimal);

  for (size_t threads : {2u, 8u}) {
    mip::SolveOptions par;
    par.threads = threads;
    const mip::SolveResult got = mip::Solve(p, par);
    EXPECT_EQ(ref.selected, got.selected) << "threads=" << threads;
    EXPECT_EQ(ref.objective, got.objective) << "threads=" << threads;
    EXPECT_EQ(ref.proven_optimal, got.proven_optimal);
    EXPECT_EQ(ref.status.code(), got.status.code());
  }
}

TEST(DeterminismTest, PortfolioPicksDeterministicWinner) {
  // Racing H6 against H4 and H5: the winner is the cheapest feasible
  // selection with ties to the primary, independent of lane timing — so
  // repeated runs and different thread counts agree exactly.
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.portfolio = {StrategyKind::kH4, StrategyKind::kH5};
  options.candidate_limit = 60;

  options.threads = 1;
  WhatIfEngine ref_engine(&env.w, env.backend.get());
  const Result<Recommendation> ref = advisor::Recommend(ref_engine, options);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (size_t threads : {2u, 8u}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      options.threads = threads;
      WhatIfEngine engine(&env.w, env.backend.get());
      const Result<Recommendation> got = advisor::Recommend(engine, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(ref->selection == got->selection)
          << "threads=" << threads << " repeat=" << repeat;
      EXPECT_EQ(ref->cost_after, got->cost_after);
      EXPECT_EQ(ref->executed_strategy, got->executed_strategy);
    }
  }
}

TEST(DeterminismTest, PortfolioWinnerIsNoWorseThanEveryLane) {
  Env env;
  AdvisorOptions portfolio_options;
  portfolio_options.strategy = StrategyKind::kRecursive;
  portfolio_options.portfolio = {StrategyKind::kH4, StrategyKind::kH5};
  portfolio_options.candidate_limit = 60;
  portfolio_options.threads = 4;
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> raced =
      advisor::Recommend(engine, portfolio_options);
  ASSERT_TRUE(raced.ok());

  for (StrategyKind kind :
       {StrategyKind::kRecursive, StrategyKind::kH4, StrategyKind::kH5}) {
    AdvisorOptions single = portfolio_options;
    single.strategy = kind;
    single.portfolio.clear();
    WhatIfEngine lane_engine(&env.w, env.backend.get());
    const Result<Recommendation> lane =
        advisor::Recommend(lane_engine, single);
    ASSERT_TRUE(lane.ok());
    EXPECT_LE(raced->cost_after, lane->cost_after)
        << "lane " << advisor::StrategyName(kind);
  }
}

}  // namespace
}  // namespace idxsel
