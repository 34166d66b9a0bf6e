// Focused regression and contract tests that cut across modules: solver
// bound validity, skyline guarantees, reconfiguration accounting in the
// trace, determinism of generated artifacts, and advisor-over-engine
// integration.

#include <gtest/gtest.h>

#include <algorithm>

#include "advisor/advisor.h"
#include "candidates/candidates.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/reconfiguration.h"
#include "engine/measured_cost.h"
#include "mip/branch_and_bound.h"
#include "selection/shuffle.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using candidates::CandidateSet;
using candidates::EnumerateAllCandidates;
using costmodel::CostModel;
using costmodel::Index;
using costmodel::IndexConfig;
using costmodel::ModelBackend;
using costmodel::WhatIfEngine;

struct Env {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;
  std::unique_ptr<WhatIfEngine> engine;

  explicit Env(uint64_t seed = 7, double write_share = 0.0) {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 8;
    params.queries_per_table = 14;
    params.seed = seed;
    params.write_share = write_share;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
    engine = std::make_unique<WhatIfEngine>(&w, backend.get());
  }
};

// ---------------------------------------------------------------- solver

TEST(SolverBoundTest, TimeoutBoundNeverExceedsTrueOptimum) {
  // Even when stopped immediately, the reported best_bound must
  // lower-bound the exhaustive optimum.
  Rng rng(31);
  mip::Problem p;
  const size_t queries = 10;
  const size_t candidates = 12;
  p.query_weight.assign(queries, 1.0);
  p.base_cost.resize(queries);
  for (auto& c : p.base_cost) c = rng.Uniform(50, 100);
  p.candidate_costs.resize(candidates);
  p.candidate_memory.resize(candidates);
  double total = 0.0;
  for (size_t k = 0; k < candidates; ++k) {
    p.candidate_memory[k] = rng.Uniform(1, 6);
    total += p.candidate_memory[k];
    const auto j = static_cast<uint32_t>(rng.UniformInt(0, queries - 1));
    p.candidate_costs[k].push_back(
        mip::QueryCost{j, rng.Uniform(1.0, p.base_cost[j])});
  }
  p.budget = 0.4 * total;

  double optimum = 0.0;
  for (double c : p.base_cost) optimum += c;
  for (uint32_t mask = 1; mask < (1u << candidates); ++mask) {
    double mem = 0.0;
    std::vector<double> cost = p.base_cost;
    for (uint32_t k = 0; k < candidates; ++k) {
      if (!(mask & (1u << k))) continue;
      mem += p.candidate_memory[k];
      for (const auto& qc : p.candidate_costs[k]) {
        cost[qc.query] = std::min(cost[qc.query], qc.cost);
      }
    }
    if (mem > p.budget) continue;
    double objective = 0.0;
    for (double c : cost) objective += c;
    optimum = std::min(optimum, objective);
  }

  p.Canonicalize();
  mip::SolveOptions options;
  options.time_limit_seconds = 0.0;  // immediate stop
  const mip::SolveResult r = mip::Solve(p, options);
  EXPECT_LE(r.best_bound, optimum + 1e-6);
  EXPECT_GE(r.objective, optimum - 1e-6);  // incumbent is feasible
}

// -------------------------------------------------------------- skyline

TEST(SkylineGuaranteeTest, EveryQueryKeepsItsBestCandidate) {
  Env env;
  const CandidateSet all = EnumerateAllCandidates(env.w, 3);
  const CandidateSet filtered = candidates::SkylineFilter(all, *env.engine);
  // For every query, the minimum achievable cost over the filtered set
  // equals the minimum over the full set — domination never removes a
  // per-query winner.
  for (workload::QueryId j = 0; j < env.w.num_queries(); ++j) {
    double best_all = env.engine->BaseCost(j);
    for (const Index& k : all.indexes()) {
      if (!env.engine->Applicable(j, k)) continue;
      best_all = std::min(best_all, env.engine->CostWithIndex(j, k));
    }
    double best_filtered = env.engine->BaseCost(j);
    for (const Index& k : filtered.indexes()) {
      if (!env.engine->Applicable(j, k)) continue;
      best_filtered = std::min(best_filtered,
                               env.engine->CostWithIndex(j, k));
    }
    EXPECT_NEAR(best_filtered, best_all,
                std::max(1.0, best_all) * 1e-9)
        << "query " << j;
  }
}

// ------------------------------------------------------- reconfiguration

TEST(ReconfigTraceTest, TraceObjectivesIncludeReconfigurationCosts) {
  Env env;
  // Existing selection: a fresh small run.
  core::RecursiveOptions bootstrap;
  bootstrap.budget = env.model->Budget(0.1);
  const core::RecursiveResult initial =
      core::SelectRecursive(*env.engine, bootstrap);
  ASSERT_FALSE(initial.selection.empty());

  costmodel::ReconfigurationParams params;
  params.create_factor = 2.0;
  const costmodel::ReconfigurationModel reconfig(env.engine.get(), params);
  core::RecursiveOptions options;
  options.budget = env.model->Budget(0.2);
  options.existing = &initial.selection;
  options.reconfiguration = &reconfig;
  const core::RecursiveResult r = core::SelectRecursive(*env.engine, options);

  // Final trace objective equals F(selection) + R(selection, existing).
  ASSERT_FALSE(r.trace.empty());
  const double expected = env.engine->WorkloadCost(r.selection) +
                          reconfig.Cost(r.selection, initial.selection);
  EXPECT_NEAR(r.trace.back().objective_after, expected, expected * 1e-9);
}

// ------------------------------------------------------------ determinism

TEST(DeterminismTest, DatabaseContentIsSeedStable) {
  Env env;
  const engine::Database db1(&env.w, 5000, 17);
  const engine::Database db2(&env.w, 5000, 17);
  for (workload::TableId t = 0; t < env.w.num_tables(); ++t) {
    for (size_t c = 0; c < db1.table(t).num_columns(); ++c) {
      ASSERT_EQ(db1.table(t).column(c), db2.table(t).column(c));
    }
  }
  const engine::Database db3(&env.w, 5000, 18);
  EXPECT_NE(db1.table(0).column(0), db3.table(0).column(0));
}

TEST(DeterminismTest, CandidateEnumerationIsOrderStable) {
  Env env;
  const CandidateSet a = EnumerateAllCandidates(env.w, 3);
  const CandidateSet b = EnumerateAllCandidates(env.w, 3);
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t c = 0; c < a.size(); ++c) EXPECT_EQ(a[c], b[c]);
}

// ------------------------------------------------ advisor over the engine

TEST(AdvisorEngineTest, RecommendationOverMeasuredCosts) {
  workload::ScalableWorkloadParams params;
  params.num_tables = 2;
  params.attributes_per_table = 6;
  params.queries_per_table = 8;
  params.rows_per_table_step = 8000;
  const workload::Workload w = workload::GenerateScalableWorkload(params);
  const engine::Database db(&w, 8000, 3);
  engine::MeasuredCostSource measured(&db, 2, 5);
  WhatIfEngine engine(&w, &measured);

  advisor::AdvisorOptions options;
  options.budget_fraction = 0.5;
  auto rec = advisor::Recommend(engine, options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_LE(rec->cost_after, rec->cost_before * (1.0 + 1e-9));
  EXPECT_LE(rec->memory, rec->budget + 1e-6);
  const std::string report = advisor::RenderReport(engine, *rec);
  EXPECT_NE(report.find("recommended indexes"), std::string::npos);
}

// ---------------------------------------------------- shuffle with writes

TEST(ShuffleWritesTest, PenaltiesEnterTheShuffleObjective) {
  Env env(7, /*write_share=*/0.4);
  const CandidateSet cands = EnumerateAllCandidates(env.w, 2);
  selection::ShuffleOptions options;
  options.max_iterations = 200;
  const selection::ShuffleResult r = selection::SelectByShuffling(
      *env.engine, cands, env.model->Budget(0.3), options);
  // Tracker objective (with penalties) must match the engine's evaluation.
  EXPECT_NEAR(r.selection.objective,
              env.engine->WorkloadCost(r.selection.selection),
              std::max(1.0, r.selection.objective) * 1e-9);
}

}  // namespace
}  // namespace idxsel
