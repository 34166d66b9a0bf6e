// Tests for the CoPhy re-implementation: LP statistics, problem building,
// and optimality of the branch-and-bound path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "candidates/candidates.h"
#include "cophy/cophy.h"
#include "costmodel/cost_model.h"
#include "workload/scalable_generator.h"

namespace idxsel::cophy {
namespace {

using candidates::CandidateSet;
using candidates::EnumerateAllCandidates;
using costmodel::CostModel;
using costmodel::ModelBackend;

struct TestEnv {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;
  std::unique_ptr<WhatIfEngine> engine;

  explicit TestEnv(uint32_t queries_per_table = 12, uint32_t attrs = 8,
                 uint64_t seed = 7) {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = attrs;
    params.queries_per_table = queries_per_table;
    params.seed = seed;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
    engine = std::make_unique<WhatIfEngine>(&w, backend.get());
  }
};

TEST(LpStatisticsTest, CountsMatchFormulas) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 2);
  const LpStatistics stats = ComputeLpStatistics(s.w, cands);
  const auto applicability = candidates::ComputeApplicability(s.w, cands);
  size_t applicable = 0;
  for (const auto& list : applicability) applicable += list.size();
  EXPECT_EQ(stats.num_variables,
            cands.size() + applicable + s.w.num_queries());
  EXPECT_EQ(stats.num_constraints, s.w.num_queries() + applicable + 1);
  EXPECT_GT(stats.mean_applicable_candidates, 0.0);
}

TEST(LpStatisticsTest, GrowsLinearlyWithCandidates) {
  TestEnv s(30, 12);
  const CandidateSet all = EnumerateAllCandidates(s.w, 3);
  CandidateSet half;
  for (uint32_t c = 0; c < all.size() / 2; ++c) half.Add(all[c]);
  const LpStatistics full_stats = ComputeLpStatistics(s.w, all);
  const LpStatistics half_stats = ComputeLpStatistics(s.w, half);
  EXPECT_GT(full_stats.num_variables, half_stats.num_variables);
  EXPECT_GT(full_stats.num_constraints, half_stats.num_constraints);
}

TEST(LpStatisticsTest, SolversCarryTheStatisticsOfTheirCandidates) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 2);
  const LpStatistics expected = ComputeLpStatistics(s.w, cands);
  const double budget = s.model->Budget(0.2);
  const CophyResult one_shot = SolveCophy(*s.engine, cands, budget);
  const PreparedCophy prepared(*s.engine, cands);
  const CophyResult reused = prepared.Solve(budget);
  for (const LpStatistics* got :
       {&one_shot.lp_stats, &prepared.lp_stats(), &reused.lp_stats}) {
    EXPECT_EQ(got->num_variables, expected.num_variables);
    EXPECT_EQ(got->num_constraints, expected.num_constraints);
    EXPECT_DOUBLE_EQ(got->mean_applicable_candidates,
                     expected.mean_applicable_candidates);
  }
}

TEST(BuildProblemTest, DimensionsAndCoefficients) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 2);
  const mip::Problem p = BuildProblem(*s.engine, cands, 1e12);
  ASSERT_EQ(p.num_queries(), s.w.num_queries());
  ASSERT_EQ(p.num_candidates(), cands.size());
  for (workload::QueryId j = 0; j < s.w.num_queries(); ++j) {
    EXPECT_DOUBLE_EQ(p.base_cost[j], s.model->UnindexedCost(j));
    EXPECT_DOUBLE_EQ(p.query_weight[j], s.w.query(j).frequency);
  }
  // Spot-check candidate cost entries against the model.
  for (uint32_t c = 0; c < cands.size(); c += 7) {
    for (const mip::QueryCost& qc : p.candidate_costs[c]) {
      EXPECT_DOUBLE_EQ(qc.cost, s.model->CostWithIndex(qc.query, cands[c]));
    }
  }
}

TEST(SolveCophyTest, UnlimitedBudgetTakesBestIndexPerQuery) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 4);
  const double huge_budget = 1e15;
  const CophyResult result = SolveCophy(*s.engine, cands, huge_budget);
  ASSERT_TRUE(result.status.ok());
  // With unlimited budget the optimum equals per-query minima over all
  // candidates.
  double expected = 0.0;
  for (workload::QueryId j = 0; j < s.w.num_queries(); ++j) {
    double best = s.engine->BaseCost(j);
    for (const costmodel::Index& k : cands.indexes()) {
      if (!s.engine->Applicable(j, k)) continue;
      best = std::min(best, s.engine->CostWithIndex(j, k));
    }
    expected += s.w.query(j).frequency * best;
  }
  EXPECT_NEAR(result.objective, expected, expected * 1e-9);
}

TEST(SolveCophyTest, ZeroBudgetSelectsNothing) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 2);
  const CophyResult result = SolveCophy(*s.engine, cands, 0.0);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.selection.empty());
}

TEST(SolveCophyTest, SelectionRespectsBudget) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 3);
  const double budget = s.model->Budget(0.2);
  const CophyResult result = SolveCophy(*s.engine, cands, budget);
  ASSERT_TRUE(result.status.ok());
  EXPECT_LE(s.engine->ConfigMemory(result.selection), budget + 1e-6);
}

TEST(SolveCophyTest, LargerCandidateSetNeverWorse) {
  TestEnv s(20, 10);
  const CandidateSet all = EnumerateAllCandidates(s.w, 3);
  CandidateSet small;
  for (uint32_t c = 0; c < all.size(); c += 4) small.Add(all[c]);
  const double budget = s.model->Budget(0.25);
  const CophyResult with_all = SolveCophy(*s.engine, all, budget);
  const CophyResult with_small = SolveCophy(*s.engine, small, budget);
  ASSERT_TRUE(with_all.status.ok());
  ASSERT_TRUE(with_small.status.ok());
  EXPECT_LE(with_all.objective, with_small.objective + 1e-6);
}

TEST(SolveCophyTest, ObjectiveMatchesEngineEvaluation) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 3);
  const CophyResult result =
      SolveCophy(*s.engine, cands, s.model->Budget(0.3));
  ASSERT_TRUE(result.status.ok());
  EXPECT_NEAR(result.objective, s.engine->WorkloadCost(result.selection),
              result.objective * 1e-9);
}

TEST(SolveCophyTest, GapRunBracketsTheExactOptimum) {
  // A run stopped at a 5 % MIP gap proves a lower bound on the exact
  // optimum, and its selection lies within the gap above that bound.
  TestEnv s(20, 10);
  const CandidateSet cands = EnumerateAllCandidates(s.w, 3);
  const double budget = s.model->Budget(0.2);
  const CophyResult exact = SolveCophy(*s.engine, cands, budget);
  mip::SolveOptions gap_options;
  gap_options.mip_gap = 0.05;
  const CophyResult gapped = SolveCophy(*s.engine, cands, budget, gap_options);
  ASSERT_TRUE(exact.status.ok());
  ASSERT_TRUE(gapped.status.ok());
  EXPECT_GT(gapped.best_bound, 0.0);
  EXPECT_LE(gapped.best_bound, exact.objective * (1.0 + 1e-9));
  EXPECT_GE(gapped.objective, exact.objective * (1.0 - 1e-9));
  EXPECT_LE(gapped.objective - gapped.best_bound,
            (0.05 + 1e-9) * gapped.objective);
  EXPECT_LE(s.engine->ConfigMemory(gapped.selection), budget + 1e-6);
}

TEST(SolveCophyTest, DnfOnImpossibleDeadline) {
  TestEnv s(40, 16);
  const CandidateSet cands = EnumerateAllCandidates(s.w, 4);
  mip::SolveOptions opts;
  opts.time_limit_seconds = 0.0;
  const CophyResult result =
      SolveCophy(*s.engine, cands, s.model->Budget(0.3), opts);
  EXPECT_TRUE(result.dnf);
  EXPECT_EQ(result.status.code(), StatusCode::kTimeout);
  // The incumbent is still budget-feasible.
  EXPECT_LE(s.engine->ConfigMemory(result.selection),
            s.model->Budget(0.3) + 1e-6);
}

TEST(SolveCophyTest, DnfOnExpiredAdvisorDeadline) {
  // An rt::Deadline that is already expired (the advisor's global budget
  // running out mid-pipeline) must yield a DNF with a feasible incumbent,
  // even though branch-and-bound "finishes" the truncated instance.
  TestEnv s(40, 16);
  const CandidateSet cands = EnumerateAllCandidates(s.w, 4);
  mip::SolveOptions opts;
  opts.deadline = rt::Deadline::After(0.0);
  const double budget = s.model->Budget(0.3);
  const CophyResult result = SolveCophy(*s.engine, cands, budget, opts);
  EXPECT_TRUE(result.dnf);
  EXPECT_EQ(result.status.code(), StatusCode::kTimeout);
  EXPECT_LE(s.engine->ConfigMemory(result.selection), budget + 1e-6);
}

TEST(PreparedCophyTest, MatchesOneShotSolve) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 3);
  const PreparedCophy prepared(*s.engine, cands);
  for (double w : {0.1, 0.2, 0.4}) {
    const double budget = s.model->Budget(w);
    const CophyResult one_shot = SolveCophy(*s.engine, cands, budget);
    const CophyResult reused = prepared.Solve(budget);
    ASSERT_TRUE(one_shot.status.ok());
    ASSERT_TRUE(reused.status.ok());
    EXPECT_NEAR(reused.objective, one_shot.objective,
                one_shot.objective * 1e-9)
        << "w=" << w;
  }
}

TEST(PreparedCophyTest, ReusesWhatIfCalls) {
  TestEnv s;
  const CandidateSet cands = EnumerateAllCandidates(s.w, 3);
  const PreparedCophy prepared(*s.engine, cands);
  const uint64_t calls_after_build = s.engine->stats().calls;
  prepared.Solve(s.model->Budget(0.1));
  prepared.Solve(s.model->Budget(0.3));
  EXPECT_EQ(s.engine->stats().calls, calls_after_build);
}

// Brute-force cross-check of SolveCophy's optimality on tiny instances.
class CophyOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CophyOptimalityTest, MatchesExhaustiveSearch) {
  TestEnv s(5, 4, GetParam());
  const CandidateSet cands = EnumerateAllCandidates(s.w, 2);
  if (cands.size() > 18) GTEST_SKIP() << "instance too large for 2^K";
  const double budget = s.model->Budget(0.3);

  double best = s.engine->WorkloadCost(costmodel::IndexConfig{});
  for (uint32_t mask = 1; mask < (1u << cands.size()); ++mask) {
    costmodel::IndexConfig config;
    for (uint32_t c = 0; c < cands.size(); ++c) {
      if (mask & (1u << c)) config.Insert(cands[c]);
    }
    if (s.engine->ConfigMemory(config) > budget) continue;
    best = std::min(best, s.engine->WorkloadCost(config));
  }

  const CophyResult result = SolveCophy(*s.engine, cands, budget);
  ASSERT_TRUE(result.status.ok());
  EXPECT_NEAR(result.objective, best, best * 1e-9) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CophyOptimalityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace idxsel::cophy
