// Tests for the advisor facade: every strategy end to end, report
// rendering, and option validation.

#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "common/deadline.h"
#include "costmodel/cost_model.h"
#include "workload/scalable_generator.h"

namespace idxsel::advisor {
namespace {

using costmodel::CostModel;
using costmodel::ModelBackend;

struct TestEnv {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;
  std::unique_ptr<WhatIfEngine> engine;

  TestEnv() {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 10;
    params.queries_per_table = 20;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
    engine = std::make_unique<WhatIfEngine>(&w, backend.get());
  }
};

class AdvisorStrategyTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(AdvisorStrategyTest, ProducesFeasibleRecommendation) {
  TestEnv env;
  AdvisorOptions options;
  options.strategy = GetParam();
  options.budget_fraction = 0.25;
  options.solver.mip_gap = 0.05;
  options.solver.time_limit_seconds = 20.0;
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_LE(rec->memory, rec->budget + 1e-6) << StrategyName(GetParam());
  EXPECT_LE(rec->cost_after, rec->cost_before * (1.0 + 1e-9));
  EXPECT_NEAR(rec->cost_after, env.engine->WorkloadCost(rec->selection),
              rec->cost_after * 1e-9);
  EXPECT_GT(rec->budget, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, AdvisorStrategyTest,
    ::testing::Values(StrategyKind::kRecursive, StrategyKind::kH1,
                      StrategyKind::kH2, StrategyKind::kH3,
                      StrategyKind::kH4, StrategyKind::kH4Skyline,
                      StrategyKind::kH5, StrategyKind::kCophy));

TEST(AdvisorTest, ExplicitBudgetOverridesFraction) {
  TestEnv env;
  AdvisorOptions options;
  options.budget_bytes = 12345678.0;
  options.budget_fraction = 0.9;  // would be much larger
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  EXPECT_DOUBLE_EQ(rec->budget, 12345678.0);
}

TEST(AdvisorTest, NegativeBudgetRejected) {
  TestEnv env;
  AdvisorOptions options;
  options.budget_fraction = -0.1;
  auto rec = Recommend(*env.engine, options);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdvisorTest, RecursiveStrategyCarriesTrace) {
  TestEnv env;
  AdvisorOptions options;
  options.budget_fraction = 0.3;
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->trace.size() > 0, rec->selection.size() > 0);
}

TEST(AdvisorTest, CandidateLimitRespected) {
  TestEnv env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kH5;
  options.candidate_limit = 8;
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->selection.size(), 8u);
}

TEST(AdvisorTest, RecursiveBeatsRulesByDefault) {
  TestEnv env;
  AdvisorOptions h6;
  AdvisorOptions h2;
  h2.strategy = StrategyKind::kH2;
  auto rec_h6 = Recommend(*env.engine, h6);
  auto rec_h2 = Recommend(*env.engine, h2);
  ASSERT_TRUE(rec_h6.ok());
  ASSERT_TRUE(rec_h2.ok());
  EXPECT_LE(rec_h6->cost_after, rec_h2->cost_after * 1.0001);
}

TEST(AdvisorTest, ReportContainsTheEssentials) {
  TestEnv env;
  AdvisorOptions options;
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  const std::string report = RenderReport(*env.engine, *rec);
  EXPECT_NE(report.find("Index recommendation"), std::string::npos);
  EXPECT_NE(report.find("H6"), std::string::npos);
  EXPECT_NE(report.find("budget:"), std::string::npos);
  EXPECT_NE(report.find("recommended indexes"), std::string::npos);
  EXPECT_NE(report.find("what-if calls"), std::string::npos);
}

TEST(AdvisorTest, ReportUsesAttributeNames) {
  TestEnv env;
  std::vector<std::string> names;
  for (workload::AttributeId i = 0; i < env.w.num_attributes(); ++i) {
    names.push_back("col_" + std::to_string(i));
  }
  AdvisorOptions options;
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  ASSERT_FALSE(rec->selection.empty());
  const std::string report = RenderReport(*env.engine, *rec, &names);
  EXPECT_NE(report.find("col_"), std::string::npos);
}

TEST(AdvisorTest, ReportCountsBestPlansLikeANaiveScan) {
  // Indexes sharing a leading attribute tie on every query that uses only
  // that attribute; a scan of every (query, index) pair gives the query to
  // the first of them in configuration order.
  TestEnv env;
  std::vector<Index> family;
  for (workload::QueryId j : {0u, 1u}) {
    for (workload::AttributeId a : env.w.query(j).attributes) {
      family.emplace_back(a);
      for (workload::AttributeId b :
           env.w.table(env.w.attribute(a).table).attributes) {
        if (b != a) family.push_back(Index(a).Append(b));
      }
    }
  }
  Recommendation rec;
  rec.selection = costmodel::IndexConfig(family);
  const auto& indexes = rec.selection.indexes();
  std::vector<size_t> served(indexes.size(), 0);
  for (workload::QueryId j = 0; j < env.w.num_queries(); ++j) {
    double best = env.engine->BaseCost(j);
    size_t owner = indexes.size();
    for (size_t p = 0; p < indexes.size(); ++p) {
      if (!env.engine->Applicable(j, indexes[p])) continue;
      const double cost = env.engine->CostWithIndex(j, indexes[p]);
      if (cost < best) {
        best = cost;
        owner = p;
      }
    }
    if (owner < indexes.size()) ++served[owner];
  }

  const std::string report = RenderReport(*env.engine, rec);
  const std::regex count("best plan for ([0-9]+) queries");
  std::vector<size_t> reported;
  for (auto it = std::sregex_iterator(report.begin(), report.end(), count);
       it != std::sregex_iterator(); ++it) {
    reported.push_back(std::stoul((*it)[1].str()));
  }
  EXPECT_EQ(reported, served);
  EXPECT_GT(indexes.size(), 10u);
}

// -- Deadline / anytime semantics --------------------------------------------

class AdvisorDeadlineTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(AdvisorDeadlineTest, ZeroTimeLimitReturnsIncumbentWithTimeout) {
  TestEnv env;
  AdvisorOptions options;
  options.strategy = GetParam();
  options.budget_fraction = 0.25;
  options.time_limit_seconds = 0.0;
  auto rec = Recommend(*env.engine, options);
  // Anytime contract: Recommend() stays ok() and reports the DNF in-band.
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->status.code(), StatusCode::kTimeout)
      << StrategyName(GetParam());
  EXPECT_TRUE(rec->dnf);
  EXPECT_TRUE(rec->degraded);
  // The incumbent is feasible and cost_after reflects it.
  EXPECT_LE(rec->memory, rec->budget + 1e-6);
  EXPECT_NEAR(rec->cost_after, env.engine->WorkloadCost(rec->selection),
              rec->cost_after * 1e-9 + 1e-9);
  EXPECT_TRUE(std::isfinite(rec->cost_after));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, AdvisorDeadlineTest,
    ::testing::Values(StrategyKind::kRecursive, StrategyKind::kH1,
                      StrategyKind::kH2, StrategyKind::kH3,
                      StrategyKind::kH4, StrategyKind::kH4Skyline,
                      StrategyKind::kH5, StrategyKind::kCophy));

TEST(AdvisorTest, CancellationTokenTriggersTimeout) {
  TestEnv env;
  rt::CancellationToken token;
  token.RequestCancel();
  AdvisorOptions options;
  options.cancellation = &token;
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->status.code(), StatusCode::kTimeout);
  EXPECT_TRUE(rec->dnf);
  EXPECT_LE(rec->memory, rec->budget + 1e-6);
}

TEST(AdvisorTest, FallbackPolicyNoneKeepsPrimaryIncumbent) {
  TestEnv env;
  AdvisorOptions options;
  options.time_limit_seconds = 0.0;
  options.fallback = FallbackPolicy::kNone;
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->status.code(), StatusCode::kTimeout);
  EXPECT_FALSE(rec->fell_back);
  EXPECT_EQ(rec->executed_strategy, StrategyKind::kRecursive);
}

TEST(AdvisorTest, GenerousDeadlineDoesNotDegrade) {
  TestEnv env;
  AdvisorOptions options;
  options.time_limit_seconds = 300.0;  // plenty for this tiny workload
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->status.ok()) << rec->status.ToString();
  EXPECT_FALSE(rec->dnf);
  EXPECT_FALSE(rec->degraded);
  EXPECT_FALSE(rec->fell_back);
}

TEST(AdvisorTest, TimedOutReportMentionsDnf) {
  TestEnv env;
  AdvisorOptions options;
  options.time_limit_seconds = 0.0;
  auto rec = Recommend(*env.engine, options);
  ASSERT_TRUE(rec.ok());
  const std::string report = RenderReport(*env.engine, *rec);
  EXPECT_NE(report.find("DNF"), std::string::npos);
}

TEST(AdvisorTest, StrategyNamesAreDistinct) {
  std::set<std::string> names;
  for (StrategyKind kind :
       {StrategyKind::kRecursive, StrategyKind::kH1, StrategyKind::kH2,
        StrategyKind::kH3, StrategyKind::kH4, StrategyKind::kH4Skyline,
        StrategyKind::kH5, StrategyKind::kCophy}) {
    names.insert(StrategyName(kind));
  }
  EXPECT_EQ(names.size(), 8u);
}

}  // namespace
}  // namespace idxsel::advisor
