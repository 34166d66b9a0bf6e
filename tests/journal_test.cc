// Selection-journal correctness: the provenance records behind every
// Recommendation must be byte-identical at any thread count and SIMD
// dispatch level (schema idxsel.journal.v1, doc/observability.md). The suite
// pins that contract for H6, the advisor portfolio, and the CoPhy/MIP
// lane, checks that sanitized what-if answers are journaled as
// rejections under a chaos backend, and exercises Explain() with the
// journal on and off.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "kernel/simd.h"
#include "obs/journal.h"
#include "rt/fault_injection.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using advisor::AdvisorOptions;
using advisor::Recommendation;
using advisor::StrategyKind;
using costmodel::CostModel;
using costmodel::Index;
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

/// RAII journal enable (restores the previous state).
class ScopedJournal {
 public:
  ScopedJournal() : previous_(obs::JournalEnabled()) {
    obs::SetJournalEnabled(true);
  }
  ~ScopedJournal() { obs::SetJournalEnabled(previous_); }

 private:
  bool previous_;
};

/// One advisor run -> journal JSONL bytes.
std::string JournalBytes(Env& env, AdvisorOptions options) {
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  return rec.ok() ? obs::JournalToJsonl(rec->journal) : std::string();
}

/// Runs `options` at threads {1, 8} x SIMD dispatch {native, forced
/// scalar} and demands byte-identical journal exports across all four
/// legs.
void CheckJournalInvariant(Env& env, AdvisorOptions options,
                           const char* what) {
  ScopedJournal journal;
  std::string reference;
  bool have_reference = false;
  for (const bool force_scalar : {false, true}) {
    const kernel::simd::ScopedForceScalar pin(force_scalar);
    for (const size_t threads : {1u, 8u}) {
      options.threads = threads;
      const std::string bytes = JournalBytes(env, options);
      EXPECT_FALSE(bytes.empty())
          << what << ": journal empty with journaling enabled";
      if (!have_reference) {
        reference = bytes;
        have_reference = true;
        continue;
      }
      EXPECT_EQ(bytes, reference)
          << what << ": journal drifted at threads=" << threads
          << " scalar=" << force_scalar;
    }
  }
}

TEST(JournalDeterminismTest, H6ByteIdenticalAcrossThreadsAndDispatch) {
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.4;
  CheckJournalInvariant(env, options, "h6");
}

TEST(JournalDeterminismTest, PortfolioByteIdenticalAcrossThreadsAndDispatch) {
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.portfolio = {StrategyKind::kH4, StrategyKind::kH5};
  options.candidate_limit = 150;
  options.budget_fraction = 0.3;
  CheckJournalInvariant(env, options, "portfolio");
}

TEST(JournalDeterminismTest, CophyMipByteIdenticalAcrossThreadsAndDispatch) {
  Env env(2, 8, 16);  // small enough for an exact solve on every leg
  AdvisorOptions options;
  options.strategy = StrategyKind::kCophy;
  options.candidate_limit = 60;
  options.budget_fraction = 0.3;
  CheckJournalInvariant(env, options, "cophy/mip");
}

TEST(JournalDeterminismTest, RepeatedRunsAreByteIdentical) {
  Env env;
  ScopedJournal journal;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.4;
  options.threads = 1;
  const std::string first = JournalBytes(env, options);
  const std::string second = JournalBytes(env, options);
  EXPECT_EQ(first, second);
}

TEST(JournalContentTest, H6CommitsCarryWinnersAndObjectives) {
  Env env;
  ScopedJournal journal;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.4;
  options.threads = 1;
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  ASSERT_TRUE(rec.ok());
  size_t commits = 0;
  bool saw_advisor_decision = false;
  for (const obs::JournalRecord& r : rec->journal) {
    if (r.strategy == "h6" && r.action == "commit") {
      ++commits;
      EXPECT_FALSE(r.winner.empty());
      EXPECT_FALSE(r.candidates.empty());
      EXPECT_TRUE(r.candidates.front().reject.empty())
          << "winner rides first with no reject reason";
      EXPECT_LE(r.objective_after, r.objective_before)
          << "a commit never worsens the objective";
    }
    if (r.strategy == "advisor" && r.action == "decision") {
      saw_advisor_decision = true;
      EXPECT_EQ(r.winner,
                advisor::StrategyKey(rec->executed_strategy));
    }
  }
  EXPECT_GT(commits, 0u);
  EXPECT_TRUE(saw_advisor_decision);
  EXPECT_EQ(commits, rec->trace.size())
      << "one commit record per committed construction step";
}

TEST(JournalContentTest, ChaosSanitizedWhatifRejectionsAreJournaled) {
  Env env;
  rt::FaultInjectionOptions fopts;
  fopts.seed = 11;
  fopts.inf_probability = 0.4;  // corrupt index sizes -> sanitized to +inf
  fopts.healthy_calls = 40;     // let base costs price truthfully first
  rt::FaultInjectingBackend chaos(env.backend.get(), fopts);
  ScopedJournal journal;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.4;
  options.threads = 1;  // call-exact fault placement needs one lane
  WhatIfEngine engine(&env.w, &chaos);
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  ASSERT_TRUE(rec.ok());
  uint64_t sanitized_total = 0;
  size_t sanitized_rejects = 0;
  for (const obs::JournalRecord& r : rec->journal) {
    if (r.strategy != "h6") continue;
    sanitized_total += r.sanitized_whatif;
    for (const obs::JournalCandidate& c : r.candidates) {
      if (c.reject == "sanitized-whatif") {
        ++sanitized_rejects;
        EXPECT_FALSE(std::isfinite(c.memory_delta))
            << "sanitized rejects carry the non-finite sanitized size";
      }
    }
  }
  EXPECT_GT(sanitized_total, 0u)
      << "chaos run must journal its sanitized what-if answers";
  EXPECT_GT(sanitized_rejects, 0u)
      << "at least one sanitized rejection must be listed";
}

TEST(JournalContentTest, JsonlRoundTripsNonFiniteDoubles) {
  obs::JournalRecord record;
  record.strategy = "h6";
  record.action = "commit";
  record.round = 1;
  record.winner = "(1,2)";
  obs::JournalCandidate reject;
  reject.index = "(3)";
  reject.reject = "sanitized-whatif";
  reject.memory_delta = std::numeric_limits<double>::infinity();
  reject.ratio = std::numeric_limits<double>::quiet_NaN();
  record.candidates.push_back(reject);
  const std::string line = record.ToJsonl();
  EXPECT_NE(line.find("\"memory_delta\":\"inf\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"ratio\":\"nan\""), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "JSONL records are single-line";
}

TEST(ExplainTest, SelectedAndRejectedIndexesExplainThemselves) {
  Env env;
  ScopedJournal journal;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.4;
  options.threads = 1;
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  ASSERT_TRUE(rec.ok());
  ASSERT_FALSE(rec->selection.empty());
  const Index& chosen = rec->selection.indexes().front();
  const std::string explain = rec->Explain(chosen);
  EXPECT_NE(explain.find(chosen.ToString()), std::string::npos) << explain;
  EXPECT_NE(explain.find("in the recommended selection"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("chosen"), std::string::npos) << explain;

  // An index no strategy ever evaluated.
  const Index stranger(std::vector<workload::AttributeId>{
      static_cast<workload::AttributeId>(env.w.num_attributes() - 1),
      0, 1, 2});
  const std::string absent = rec->Explain(stranger);
  EXPECT_NE(absent.find("never appeared"), std::string::npos) << absent;
}

TEST(ExplainTest, JournalOffRunPointsAtTheEnableSwitch) {
  Env env;
  obs::SetJournalEnabled(false);
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.4;
  options.threads = 1;
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->journal.empty());
  ASSERT_FALSE(rec->selection.empty());
  const std::string explain = rec->Explain(rec->selection.indexes().front());
  EXPECT_NE(explain.find("IDXSEL_JOURNAL"), std::string::npos) << explain;
}

}  // namespace
}  // namespace idxsel
