// Tests for audit::InvariantAuditor: a healthy pipeline audits clean after
// real selections, and seeded corruptions are caught with the right
// violation class. The auditor is the only component that can see dense /
// hashed cache divergence from the outside, so its own detection power
// needs pinning.

#include "audit/auditor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/reconfiguration.h"
#include "costmodel/what_if.h"
#include "reference/reference_h6.h"
#include "workload/scalable_generator.h"

namespace idxsel::audit {
namespace {

class AuditFixture : public ::testing::Test {
 protected:
  AuditFixture() {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 8;
    params.queries_per_table = 15;
    w_ = workload::GenerateScalableWorkload(params);
    model_ = std::make_unique<costmodel::CostModel>(&w_);
    backend_ = std::make_unique<costmodel::ModelBackend>(model_.get());
  }

  workload::Workload w_;
  std::unique_ptr<costmodel::CostModel> model_;
  std::unique_ptr<costmodel::ModelBackend> backend_;
};

TEST_F(AuditFixture, FreshEngineAuditsClean) {
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditAll();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.ids_checked, 0u);  // posting lists always audited
}

TEST_F(AuditFixture, PostingListsAuditClean) {
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditPostingLists();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.ids_checked, w_.num_attributes());
}

TEST_F(AuditFixture, SelectionLeavesCoherentCaches) {
  // Drive the real pipeline (which also exercises the in-loop audit hook
  // when the build runs !NDEBUG), then audit the final cache state.
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  core::RecursiveOptions opts;
  opts.budget = 1e7;
  (void)core::SelectRecursive(engine, opts);
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditAll();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(AuditFixture, ReportSummaryAndMergeAccumulate) {
  AuditReport a;
  a.ids_checked = 2;
  EXPECT_TRUE(a.ok());
  EXPECT_NE(a.Summary().find("audit ok"), std::string::npos);
  a.AddViolation("first");
  AuditReport b;
  b.slots_checked = 3;
  b.AddViolation("second");
  a.Merge(b);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.violation_count, 2u);
  EXPECT_EQ(a.slots_checked, 3u);
  const std::string summary = a.Summary();
  EXPECT_NE(summary.find("first"), std::string::npos);
  EXPECT_NE(summary.find("second"), std::string::npos);
}

TEST(AuditGateTest, ScopedToggleRestores) {
  const bool before = Enabled();
  {
    ScopedAuditEnabled on(true);
    EXPECT_TRUE(Enabled());
    {
      ScopedAuditEnabled off(false);
      EXPECT_FALSE(Enabled());
    }
    EXPECT_TRUE(Enabled());
  }
  EXPECT_EQ(Enabled(), before);
}

TEST_F(AuditFixture, CorruptArenaTupleIsCaught) {
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  // A duplicated attribute violates the tuple invariant the masks rely
  // on. Interning it through the public arena handle simulates a buggy
  // candidate generator slipping a malformed index into the dense path.
  const workload::AttributeId dup[2] = {0, 0};
  engine.arena().Intern(dup, 2);
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditArenaMasks();
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations[0].find("repeats attribute"),
            std::string::npos)
      << report.Summary();
}

TEST_F(AuditFixture, DenseCostSlotsMatchHashedCacheBitForBit) {
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  // Touch a few dense slots through the public fast path, then verify the
  // auditor actually walked them (slots_checked > 0) and found twins.
  const workload::AttributeId a = w_.query(0).attributes.front();
  const kernel::IndexId id = engine.arena().Intern(&a, 1);
  const auto& posting = w_.queries_with(a);
  for (uint32_t slot = 0; slot < posting.size(); ++slot) {
    engine.CostWithIndexDense(posting[slot], id, slot);
  }
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditCostTables();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.slots_checked, posting.size());
}

// ------------------------------------------------------------ move memo

/// Tables with few distinct values per attribute and queries over one to
/// four attributes: commits change second-best costs and owners as well
/// as best costs, and appends, pairs, prunes and swaps all pay off — the
/// states a wrong memo invalidation rule would leave stale.
workload::Workload MemoWorkload(uint32_t tables, double write_share,
                                uint64_t seed) {
  workload::Workload w;
  Rng rng(seed);
  for (uint32_t t = 0; t < tables; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    const workload::TableId table = w.AddTable(std::move(name), 50'000 * (t + 1));
    std::vector<workload::AttributeId> attrs;
    for (int i = 0; i < 9; ++i) {
      attrs.push_back(w.AddAttribute(
          table, static_cast<uint64_t>(rng.UniformInt(2, 300)),
          rng.NextDouble() < 0.5 ? 4u : 8u));
    }
    for (int j = 0; j < 16; ++j) {
      std::vector<workload::AttributeId> q;
      const int64_t width = rng.UniformInt(1, 4);
      for (int64_t k = 0; k < width; ++k) {
        q.push_back(attrs[static_cast<size_t>(rng.UniformInt(0, 8))]);
      }
      const auto kind = rng.NextDouble() < write_share
                            ? workload::QueryKind::kWrite
                            : workload::QueryKind::kRead;
      const auto added = w.AddQuery(
          table, std::move(q), static_cast<double>(rng.UniformInt(1, 1000)),
          kind);
      IDXSEL_CHECK(added.ok());
    }
  }
  w.Finalize();
  return w;
}

/// The existing selection of the reconfiguration variant: for every write
/// query, the index on its first two attributes. No read query profits
/// from such an extension, but appending to reach it sheds the create
/// cost of the index it replaces — append commits that change no query's
/// cost, which only the position and leading-attribute rules invalidate.
costmodel::IndexConfig WriteExtensions(const workload::Workload& w) {
  costmodel::IndexConfig existing;
  for (const workload::Query& q : w.queries()) {
    if (q.kind != workload::QueryKind::kWrite || q.attributes.size() < 2) {
      continue;
    }
    existing.Insert(costmodel::Index({q.attributes[0], q.attributes[1]}));
  }
  return existing;
}

TEST(MemoAuditTest, MemoizedRoundsMatchReferenceUnderAudit) {
  // With the auditor on, every H6 round re-evaluates every cached unit
  // and aborts on the first move that differs from its cached copy — so a
  // wrong invalidation rule fails here even where the final answer would
  // survive it. The reference comparison checks the answers themselves.
  ScopedAuditEnabled on(true);
  size_t cases = 0;
  for (bool example1 : {true, false}) {
  for (uint32_t tables : {1u, 2u, 3u}) {
    for (double write_share : {0.0, 0.25}) {
      for (uint64_t seed : {11u, 23u, 37u}) {
        workload::Workload w;
        if (example1) {  // the paper's Example 1 generator, small
          workload::ScalableWorkloadParams params;
          params.num_tables = tables;
          params.attributes_per_table = 8;
          params.queries_per_table = 12;
          params.write_share = write_share;
          params.seed = seed;
          w = workload::GenerateScalableWorkload(params);
        } else {
          w = MemoWorkload(tables, write_share, seed);
        }
        const costmodel::CostModel model(&w);
        costmodel::ModelBackend backend(&model);
        const costmodel::IndexConfig existing = WriteExtensions(w);
        for (double share : {0.05, 0.2, 0.5}) {
          core::RecursiveOptions base;
          base.budget = model.Budget(share);
          // 0 plain, 1 prune, 2 pairs, 3 swap, 4 all three, 5 eq. 3's R.
          for (int variant = 0; variant < 6; ++variant) {
            core::RecursiveOptions options = base;
            options.prune_unused = variant == 1 || variant == 4;
            options.pair_steps = variant == 2 || variant == 4;
            options.swap_repair = variant == 3 || variant == 4;
            const bool reconfigure = variant == 5;
            const std::string label =
                std::string(example1 ? "example1" : "low-cardinality") +
                " T=" + std::to_string(tables) +
                " writes=" + std::to_string(write_share) +
                " seed=" + std::to_string(seed) +
                " w=" + std::to_string(share) +
                " variant=" + std::to_string(variant);
            costmodel::WhatIfEngine ref_engine(&w, &backend);
            const costmodel::ReconfigurationModel ref_r(&ref_engine);
            if (reconfigure) {
              options.existing = &existing;
              options.reconfiguration = &ref_r;
            }
            const reference::ReferenceResult want =
                reference::ReferenceH6(ref_engine, options);
            for (size_t threads : {1u, 4u}) {
              costmodel::WhatIfEngine engine(&w, &backend);
              const costmodel::ReconfigurationModel r(&engine);
              if (reconfigure) options.reconfiguration = &r;
              options.threads = threads;
              const core::RecursiveResult got =
                  core::SelectRecursive(engine, options);
              EXPECT_EQ(reference::Diff(reference::FromResult(got), want), "")
                  << label << " threads=" << threads;
            }
            ++cases;
          }
        }
      }
    }
  }
  }
  EXPECT_EQ(cases, 648u);
}

TEST(MemoAuditTest, CostNeutralAppendRefreshesItsSingle) {
  // x's read template makes {x} the first step. Appending a — which only
  // a write template holds — changes no query's cost, but reaches an
  // index that already exists, shedding {x}'s create cost (eq. 3's R):
  // a commit that changes no best, second or owner. {x} leaves the
  // selection all the same, so its single must be re-evaluated; only the
  // commit's own mark on x says so, and the audit checks that it did.
  ScopedAuditEnabled on(true);
  workload::Workload w;
  const workload::TableId t = w.AddTable("t", 1'000'000);
  const workload::AttributeId x = w.AddAttribute(t, 100'000, 4);
  const workload::AttributeId a = w.AddAttribute(t, 1'000, 4);
  ASSERT_TRUE(w.AddQuery(t, {x}, 1000.0, workload::QueryKind::kRead).ok());
  ASSERT_TRUE(w.AddQuery(t, {x, a}, 1.0, workload::QueryKind::kWrite).ok());
  w.Finalize();
  const costmodel::CostModel model(&w);
  costmodel::ModelBackend backend(&model);
  costmodel::IndexConfig existing;
  existing.Insert(costmodel::Index({x, a}));

  core::RecursiveOptions options;
  options.budget = model.Budget(0.9);
  options.existing = &existing;
  costmodel::WhatIfEngine ref_engine(&w, &backend);
  const costmodel::ReconfigurationModel ref_r(&ref_engine);
  options.reconfiguration = &ref_r;
  const reference::ReferenceResult want =
      reference::ReferenceH6(ref_engine, options);

  costmodel::WhatIfEngine engine(&w, &backend);
  const costmodel::ReconfigurationModel r(&engine);
  options.reconfiguration = &r;
  const core::RecursiveResult got = core::SelectRecursive(engine, options);
  EXPECT_EQ(reference::Diff(reference::FromResult(got), want), "");
  ASSERT_EQ(got.trace.size(), 2u);
  EXPECT_EQ(got.trace[1].kind, core::StepKind::kAppend);
  EXPECT_TRUE(got.trace[1].before == costmodel::Index(x));
  EXPECT_TRUE(got.trace[1].after == costmodel::Index({x, a}));
}

TEST(MemoAuditTest, FuzzSeedsPassTheMemoAudit) {
  // The H6 fuzz seeds include searched inputs whose runs commit new
  // pairs, append pairs, a prune and a swap.
  ScopedAuditEnabled on(true);
  size_t seeds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(IDXSEL_H6_CORPUS_DIR)) {
    std::ifstream file(entry.path(), std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
    EXPECT_EQ(reference::CheckEncodedCase(
                  reinterpret_cast<const uint8_t*>(bytes.data()),
                  bytes.size()),
              "")
        << entry.path();
    ++seeds;
  }
  EXPECT_GE(seeds, 13u);
}

}  // namespace
}  // namespace idxsel::audit
