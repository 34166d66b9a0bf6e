// Tests for Index/IndexConfig and the Appendix-B cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "costmodel/cost_model.h"
#include "costmodel/index.h"
#include "reference/reference_cost_model.h"
#include "workload/scalable_generator.h"
#include "workload/workload.h"

namespace idxsel::costmodel {
namespace {

using workload::AttributeId;
using workload::TableId;

class CostModelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    t_ = w_.AddTable("t", 1 << 20);  // n = 1,048,576 rows
    a_ = w_.AddAttribute(t_, 1 << 10, 4);  // d = 1024, very selective
    b_ = w_.AddAttribute(t_, 1 << 4, 8);   // d = 16
    c_ = w_.AddAttribute(t_, 1 << 2, 4);   // d = 4, unselective
    q_ab_ = *w_.AddQuery(t_, {a_, b_}, 10.0);
    q_b_ = *w_.AddQuery(t_, {b_}, 1.0);
    q_abc_ = *w_.AddQuery(t_, {a_, b_, c_}, 2.0);
    w_.Finalize();
    model_ = std::make_unique<CostModel>(&w_);
  }

  workload::Workload w_;
  TableId t_ = 0;
  AttributeId a_ = 0, b_ = 0, c_ = 0;
  workload::QueryId q_ab_ = 0, q_b_ = 0, q_abc_ = 0;
  std::unique_ptr<CostModel> model_;
};

// ----------------------------------------------------------------- Index

TEST(IndexTest, BasicProperties) {
  const Index k({3, 1, 7});
  EXPECT_EQ(k.width(), 3u);
  EXPECT_EQ(k.leading(), 3u);
  EXPECT_TRUE(k.Contains(1));
  EXPECT_FALSE(k.Contains(2));
  EXPECT_EQ(k.ToString(), "(3,1,7)");
}

TEST(IndexTest, AppendPreservesOrder) {
  const Index k = Index(5).Append(2).Append(9);
  EXPECT_EQ(k.attributes(), (std::vector<AttributeId>{5, 2, 9}));
}

TEST(IndexTest, PrefixAndHasPrefix) {
  const Index k({4, 2, 6});
  EXPECT_EQ(k.Prefix(2), Index({4, 2}));
  EXPECT_TRUE(k.HasPrefix(Index({4, 2})));
  EXPECT_TRUE(k.HasPrefix(k));
  EXPECT_FALSE(k.HasPrefix(Index({2, 4})));
  EXPECT_FALSE(Index({4}).HasPrefix(k));
}

TEST(IndexTest, CoverablePrefixLength) {
  const Index k({4, 2, 6});
  EXPECT_EQ(k.CoverablePrefixLength({2, 4, 6}), 3u);
  EXPECT_EQ(k.CoverablePrefixLength({2, 4}), 2u);
  EXPECT_EQ(k.CoverablePrefixLength({4, 6}), 1u);  // 2 missing breaks it
  EXPECT_EQ(k.CoverablePrefixLength({2, 6}), 0u);  // leading 4 missing
  EXPECT_EQ(k.CoverablePrefixLength({}), 0u);
}

TEST(IndexTest, OrderSensitiveEqualityAndHash) {
  const Index ab({1, 2});
  const Index ba({2, 1});
  EXPECT_NE(ab, ba);
  // Hash may collide in theory, but not for these tiny tuples.
  EXPECT_NE(ab.Hash(), ba.Hash());
}

TEST(IndexConfigTest, InsertEraseContains) {
  IndexConfig config;
  EXPECT_TRUE(config.Insert(Index({1, 2})));
  EXPECT_FALSE(config.Insert(Index({1, 2})));
  EXPECT_TRUE(config.Contains(Index({1, 2})));
  EXPECT_TRUE(config.Insert(Index(3)));
  EXPECT_EQ(config.size(), 2u);
  EXPECT_TRUE(config.Erase(Index({1, 2})));
  EXPECT_FALSE(config.Erase(Index({1, 2})));
  EXPECT_EQ(config.size(), 1u);
}

TEST(IndexConfigTest, CanonicalOrderIndependentOfInsertion) {
  IndexConfig c1;
  c1.Insert(Index({2}));
  c1.Insert(Index({1}));
  IndexConfig c2;
  c2.Insert(Index({1}));
  c2.Insert(Index({2}));
  EXPECT_EQ(c1, c2);
}

// ------------------------------------------------------------- CostModel

TEST_F(CostModelFixture, IndexMemoryMatchesAppendixBFormula) {
  const double n = static_cast<double>(w_.table(t_).row_count);
  const double position_list = std::ceil(std::ceil(std::log2(n)) * n / 8.0);
  EXPECT_DOUBLE_EQ(model_->IndexMemory(Index(a_)), position_list + 4.0 * n);
  EXPECT_DOUBLE_EQ(model_->IndexMemory(Index(b_)), position_list + 8.0 * n);
  EXPECT_DOUBLE_EQ(model_->IndexMemory(Index(a_).Append(b_)),
                   position_list + 12.0 * n);
}

TEST_F(CostModelFixture, BudgetIsFractionOfSingleAttributeTotal) {
  const double total = model_->TotalSingleAttributeMemory();
  EXPECT_GT(total, 0.0);
  EXPECT_DOUBLE_EQ(model_->Budget(0.2), 0.2 * total);
  EXPECT_DOUBLE_EQ(model_->Budget(0.0), 0.0);
}

TEST_F(CostModelFixture, IndexReducesCost) {
  const double base = model_->UnindexedCost(q_ab_);
  const double with_a = model_->CostWithIndex(q_ab_, Index(a_));
  const double with_ab = model_->CostWithIndex(q_ab_, Index(a_).Append(b_));
  EXPECT_LT(with_a, base);
  EXPECT_LT(with_ab, with_a);  // wider coverable prefix helps further
}

TEST_F(CostModelFixture, InapplicableIndexFallsBackToScan) {
  // Index on (c) is applicable to q_ab only if c is accessed — it is not.
  EXPECT_FALSE(model_->Applicable(q_ab_, Index(c_)));
  EXPECT_DOUBLE_EQ(model_->CostWithIndex(q_ab_, Index(c_)),
                   model_->UnindexedCost(q_ab_));
}

TEST_F(CostModelFixture, ExtensionInvariantForNonCoveringQueries) {
  // q_b does not access a, so an index (b) and its extension (b, a) must
  // cost exactly the same — the invariant Algorithm 1's caching relies on.
  const Index kb(b_);
  const Index kba = kb.Append(a_);
  EXPECT_DOUBLE_EQ(model_->CostWithIndex(q_b_, kb),
                   model_->CostWithIndex(q_b_, kba));
}

TEST_F(CostModelFixture, PrefixOrderWithinCoveredSetIsIrrelevant) {
  const Index ab = Index(a_).Append(b_);
  const Index ba = Index(b_).Append(a_);
  EXPECT_DOUBLE_EQ(model_->CostWithIndex(q_ab_, ab),
                   model_->CostWithIndex(q_ab_, ba));
}

TEST_F(CostModelFixture, CostOneIndexTakesTheMinimum) {
  IndexConfig config;
  config.Insert(Index(a_));
  config.Insert(Index(b_));
  const double expected = std::min(model_->CostWithIndex(q_ab_, Index(a_)),
                                   model_->CostWithIndex(q_ab_, Index(b_)));
  EXPECT_DOUBLE_EQ(model_->CostOneIndex(q_ab_, config), expected);
}

TEST_F(CostModelFixture, EmptyConfigEqualsUnindexed) {
  EXPECT_DOUBLE_EQ(model_->CostOneIndex(q_abc_, IndexConfig{}),
                   model_->UnindexedCost(q_abc_));
  EXPECT_DOUBLE_EQ(model_->CostMultiIndex(q_abc_, IndexConfig{}),
                   model_->UnindexedCost(q_abc_));
}

TEST_F(CostModelFixture, MultiIndexNeverWorseThanOneIndex) {
  IndexConfig config;
  config.Insert(Index(a_));
  config.Insert(Index(c_));
  EXPECT_LE(model_->CostMultiIndex(q_abc_, config),
            model_->CostOneIndex(q_abc_, config) + 1e-9);
}

TEST_F(CostModelFixture, CostsNeverNegativeOrAboveBase) {
  const IndexConfig config(std::vector<Index>{Index(a_), Index(b_)});
  for (workload::QueryId j : {q_ab_, q_b_, q_abc_}) {
    const double cost = model_->CostOneIndex(j, config);
    EXPECT_GT(cost, 0.0);
    EXPECT_LE(cost, model_->UnindexedCost(j));
  }
}

// Property sweep: monotonicity of f_j in the selection (adding an index
// never increases one-index costs) across generated workloads.
class CostMonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CostMonotonicityTest, AddingIndexNeverIncreasesCost) {
  workload::ScalableWorkloadParams params;
  params.num_tables = 2;
  params.attributes_per_table = 10;
  params.queries_per_table = 20;
  params.seed = GetParam();
  const workload::Workload w = workload::GenerateScalableWorkload(params);
  const CostModel model(&w);

  IndexConfig config;
  for (AttributeId i = 0; i < w.num_attributes(); i += 3) {
    IndexConfig bigger = config;
    bigger.Insert(Index(i));
    for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
      EXPECT_LE(model.CostOneIndex(j, bigger),
                model.CostOneIndex(j, config) + 1e-9)
          << "seed=" << GetParam() << " j=" << j << " i=" << i;
    }
    config = bigger;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostMonotonicityTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ------------------------------------------------- oracle: the old model

// The compiled model against the copy-and-sort model it replaced
// (tests/reference/reference_cost_model.h), bit for bit. reference_test
// cannot see a wrong scan order: its reference H6 prices through the same
// engine and backend. The workloads are built to hit every branch the
// compiled tables take:
//   * distinct counts drawn from a short list, so equal selectivities are
//     common and the scan order must break ties on the id — also on a
//     40-attribute table whose queries are wider than 16, where std::sort
//     partitions instead of insertion-sorting and so reorders ties;
//   * write templates (base cost only, every index inapplicable);
//   * indexes of width 1-6, past the arena's 4 inline attributes, as
//     random permutations of a table's attributes: prefixes that cover the
//     whole query, prefixes that stop early, and leading attributes the
//     query lacks (inapplicable);
//   * every query priced against every table's indexes (cross-table).
class CostModelOracleTest : public ::testing::TestWithParam<uint64_t> {};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST_P(CostModelOracleTest, MatchesTheCopyAndSortModelBitForBit) {
  Rng rng(GetParam());
  static constexpr uint64_t kDistinct[] = {1, 2, 4, 4, 16, 16, 1000, 1 << 20};
  static constexpr uint32_t kValueSize[] = {1, 2, 4, 8};
  workload::Workload w;
  std::vector<std::vector<AttributeId>> table_attrs;
  for (const char* name : {"t0", "t1", "t2", "wide"}) {
    const TableId table =
        w.AddTable(name, static_cast<uint64_t>(rng.UniformInt(1, 1 << 24)));
    std::vector<AttributeId> attrs;
    const int64_t width = table == 3 ? 40 : rng.UniformInt(6, 9);
    for (int64_t i = 0; i < width; ++i) {
      attrs.push_back(w.AddAttribute(
          table, kDistinct[rng.UniformInt(0, 7)],
          kValueSize[rng.UniformInt(0, 3)]));
    }
    table_attrs.push_back(attrs);
  }
  const auto shuffled = [&](std::vector<AttributeId> attrs) {
    for (size_t u = attrs.size(); u > 1; --u) {
      std::swap(attrs[u - 1],
                attrs[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(u) - 1))]);
    }
    return attrs;
  };
  for (TableId t = 0; t < table_attrs.size(); ++t) {
    for (int q = 0; q < 12; ++q) {
      std::vector<AttributeId> attrs = shuffled(table_attrs[t]);
      attrs.resize(static_cast<size_t>(
          rng.UniformInt(t == 3 ? 17 : 1, static_cast<int64_t>(attrs.size()))));
      const auto kind = rng.UniformInt(0, 4) == 0 ? workload::QueryKind::kWrite
                                                  : workload::QueryKind::kRead;
      ASSERT_TRUE(w.AddQuery(t, attrs, rng.Uniform(0.5, 8.0), kind).ok());
    }
  }
  w.Finalize();

  std::vector<Index> indexes;
  for (TableId t = 0; t < table_attrs.size(); ++t) {
    // Every query's own attributes, leading with each of them in turn:
    // prefixes that cover the whole query.
    for (const workload::Query& q : w.queries()) {
      if (q.table != t) continue;
      std::vector<AttributeId> attrs = shuffled(q.attributes);
      attrs.resize(std::min<size_t>(attrs.size(), 6));
      indexes.emplace_back(attrs);
    }
    for (int k = 0; k < 24; ++k) {
      std::vector<AttributeId> attrs = shuffled(table_attrs[t]);
      attrs.resize(static_cast<size_t>(rng.UniformInt(1, 6)));
      indexes.emplace_back(attrs);
    }
  }
  std::vector<IndexConfig> configs(6);
  for (IndexConfig& config : configs) {
    const int64_t n = rng.UniformInt(1, 8);
    for (int64_t u = 0; u < n; ++u) {
      config.Insert(indexes[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(indexes.size()) - 1))]);
    }
  }

  const CostModel model(&w);
  const reference::ReferenceCostModel oracle(&w);
  size_t widths_seen[7] = {};
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    ASSERT_EQ(Bits(model.UnindexedCost(j)), Bits(oracle.UnindexedCost(j)))
        << "seed=" << GetParam() << " j=" << j;
    for (const Index& k : indexes) {
      ++widths_seen[k.width()];
      ASSERT_EQ(Bits(model.CostWithIndex(j, k)),
                Bits(oracle.CostWithIndex(j, k)))
          << "seed=" << GetParam() << " j=" << j << " k=" << k.ToString();
    }
    for (const IndexConfig& config : configs) {
      ASSERT_EQ(Bits(model.CostOneIndex(j, config)),
                Bits(oracle.CostOneIndex(j, config)))
          << "seed=" << GetParam() << " j=" << j << " " << config.ToString();
      ASSERT_EQ(Bits(model.CostMultiIndex(j, config)),
                Bits(oracle.CostMultiIndex(j, config)))
          << "seed=" << GetParam() << " j=" << j << " " << config.ToString();
    }
  }
  for (size_t width = 1; width <= 6; ++width) {
    EXPECT_GT(widths_seen[width], 0u) << "no index of width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostModelOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace idxsel::costmodel
