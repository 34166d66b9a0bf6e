// Tests for the column store, composite indexes, the executor (against a
// naive row-at-a-time reference), and the measured cost source.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "engine/column_store.h"
#include "engine/composite_index.h"
#include "engine/executor.h"
#include "engine/measured_cost.h"
#include "workload/scalable_generator.h"

namespace idxsel::engine {
namespace {

/// Ground truth: row-at-a-time evaluation of conjunctive equality; the ids
/// of the matching rows, ascending.
std::vector<uint32_t> ReferenceRows(const ColumnTable& table,
                                    const std::vector<Predicate>& predicates) {
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    bool all = true;
    for (const Predicate& p : predicates) {
      all = all && table.at(p.column, r) == p.value;
    }
    if (all) rows.push_back(r);
  }
  return rows;
}

uint64_t ReferenceCount(const ColumnTable& table,
                        const std::vector<Predicate>& predicates) {
  return ReferenceRows(table, predicates).size();
}

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() : rng_(42), table_(5000, {50, 8, 3, 500}, rng_) {}

  Executor MakeExecutor() { return Executor(&table_, {50, 8, 3, 500}); }

  Rng rng_;
  ColumnTable table_;
};

TEST_F(EngineFixture, ColumnTableShape) {
  EXPECT_EQ(table_.num_rows(), 5000u);
  EXPECT_EQ(table_.num_columns(), 4u);
  EXPECT_EQ(table_.memory_bytes(), 4u * 5000u * sizeof(uint32_t));
}

TEST_F(EngineFixture, ValuesWithinDistinctRange) {
  const uint32_t limits[] = {50, 8, 3, 500};
  for (size_t c = 0; c < 4; ++c) {
    for (uint32_t r = 0; r < table_.num_rows(); ++r) {
      EXPECT_LT(table_.at(c, r), limits[c]);
    }
  }
}

TEST_F(EngineFixture, CompositeIndexIsSortedPermutation) {
  const CompositeIndex index(&table_, {0, 1});
  // Probe the full domain; the union of probes must cover every row once.
  uint64_t covered = 0;
  for (uint32_t v0 = 0; v0 < 50; ++v0) {
    const std::vector<uint32_t> key = {v0};
    covered += index.Probe(key).size();
  }
  EXPECT_EQ(covered, table_.num_rows());
}

TEST_F(EngineFixture, ProbeMatchesReference) {
  const CompositeIndex index(&table_, {0, 1});
  for (uint32_t v0 = 0; v0 < 50; v0 += 7) {
    for (uint32_t v1 = 0; v1 < 8; v1 += 3) {
      const std::vector<uint32_t> key = {v0, v1};
      const auto span = index.Probe(key);
      const uint64_t expected =
          ReferenceCount(table_, {{0, v0}, {1, v1}});
      EXPECT_EQ(span.size(), expected) << v0 << "," << v1;
      for (uint32_t row : span) {
        EXPECT_EQ(table_.at(0, row), v0);
        EXPECT_EQ(table_.at(1, row), v1);
      }
    }
  }
}

TEST_F(EngineFixture, ProbePrefixOnly) {
  const CompositeIndex index(&table_, {2, 3});
  const std::vector<uint32_t> key = {1};  // prefix of width 1
  const auto span = index.Probe(key);
  EXPECT_EQ(span.size(), ReferenceCount(table_, {{2, 1}}));
}

TEST_F(EngineFixture, ProbeMissingKeyIsEmpty) {
  const CompositeIndex index(&table_, {1});
  const std::vector<uint32_t> key = {999};  // outside the domain
  EXPECT_EQ(index.Probe(key).size(), 0u);
}

TEST_F(EngineFixture, IndexMemoryGrowsWithWidth) {
  const CompositeIndex narrow(&table_, {0});
  const CompositeIndex wide(&table_, {0, 1, 2});
  EXPECT_LT(narrow.memory_bytes(), wide.memory_bytes());
}

TEST_F(EngineFixture, ScanOnlyMatchesReference) {
  const Executor executor = MakeExecutor();
  const std::vector<Predicate> predicates = {{0, 3}, {1, 2}};
  const ExecutionResult result = executor.ScanOnly(predicates);
  EXPECT_EQ(result.matches, ReferenceCount(table_, predicates));
  EXPECT_GE(result.rows_touched, table_.num_rows());
}

TEST_F(EngineFixture, WithIndexMatchesReference) {
  const Executor executor = MakeExecutor();
  const CompositeIndex index(&table_, {3, 0});
  const std::vector<Predicate> predicates = {{0, 3}, {3, 17}, {2, 1}};
  const ExecutionResult result = executor.WithIndex(predicates, index);
  EXPECT_EQ(result.matches, ReferenceCount(table_, predicates));
  // Index prefix (3, 0) is fully constrained: far fewer rows touched than
  // the full scan.
  EXPECT_LT(result.rows_touched, table_.num_rows());
}

TEST_F(EngineFixture, CoverablePrefixComputation) {
  const CompositeIndex index(&table_, {3, 0, 1});
  EXPECT_EQ(Executor::CoverablePrefix({{3, 1}}, index), 1u);
  EXPECT_EQ(Executor::CoverablePrefix({{3, 1}, {0, 2}}, index), 2u);
  EXPECT_EQ(Executor::CoverablePrefix({{0, 2}}, index), 0u);  // leading gap
  EXPECT_EQ(Executor::CoverablePrefix({{3, 1}, {1, 2}}, index), 1u);
}

TEST_F(EngineFixture, SelectiveIndexTouchesFewerRowsThanScan) {
  const Executor executor = MakeExecutor();
  const CompositeIndex index(&table_, {3});
  const std::vector<Predicate> predicates = {{3, 42}};
  const ExecutionResult scan = executor.ScanOnly(predicates);
  const ExecutionResult probe = executor.WithIndex(predicates, index);
  EXPECT_EQ(scan.matches, probe.matches);
  EXPECT_LT(probe.rows_touched, scan.rows_touched / 10);
}

// ------------------------------------------------------------- database

TEST(DatabaseTest, ScalesRowsAndClampsDistinct) {
  workload::ScalableWorkloadParams params;
  params.num_tables = 2;
  params.attributes_per_table = 5;
  params.queries_per_table = 5;
  params.rows_per_table_step = 1'000'000;
  const workload::Workload w = workload::GenerateScalableWorkload(params);
  const Database db(&w, /*max_rows_per_table=*/10'000, /*seed=*/1);
  EXPECT_EQ(db.rows(0), 10'000u);
  EXPECT_EQ(db.rows(1), 10'000u);
  for (workload::AttributeId a = 0; a < w.num_attributes(); ++a) {
    const auto& col = db.table(w.attribute(a).table).column(db.ordinal(a));
    const uint32_t max_value = *std::max_element(col.begin(), col.end());
    EXPECT_LT(max_value, 10'000u);
  }
}

// Property sweep: random tables, random plans — every access path agrees
// with the row-at-a-time reference.
class ExecutorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFuzzTest, AllAccessPathsAgree) {
  Rng rng(GetParam());
  const uint64_t rows = static_cast<uint64_t>(1000 + rng.UniformInt(0, 4000));
  std::vector<uint32_t> domains;
  const size_t num_cols = static_cast<size_t>(rng.UniformInt(2, 5));
  for (size_t c = 0; c < num_cols; ++c) {
    domains.push_back(static_cast<uint32_t>(rng.UniformInt(2, 200)));
  }
  const ColumnTable table(rows, domains, rng);
  const Executor executor(&table, domains);

  for (int round = 0; round < 20; ++round) {
    // Random conjunctive predicate set over distinct columns.
    std::vector<Predicate> predicates;
    for (size_t c = 0; c < num_cols; ++c) {
      if (rng.NextDouble() < 0.5) continue;
      predicates.push_back(Predicate{
          static_cast<uint32_t>(c),
          static_cast<uint32_t>(rng.UniformInt(0, domains[c]))});
    }
    if (predicates.empty()) {
      predicates.push_back(Predicate{0, 0});
    }
    const uint64_t expected = ReferenceCount(table, predicates);
    EXPECT_EQ(executor.ScanOnly(predicates).matches, expected);

    // Random index over a permutation of some columns; run it when
    // applicable.
    std::vector<uint32_t> index_cols;
    for (size_t c = 0; c < num_cols; ++c) {
      index_cols.push_back(static_cast<uint32_t>(c));
    }
    for (size_t c = index_cols.size(); c > 1; --c) {
      std::swap(index_cols[c - 1],
                index_cols[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(c) - 1))]);
    }
    index_cols.resize(static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(index_cols.size()))));
    const CompositeIndex composite(&table, index_cols);
    if (Executor::CoverablePrefix(predicates, composite) >= 1) {
      EXPECT_EQ(executor.WithIndex(predicates, composite).matches, expected)
          << "seed=" << GetParam() << " round=" << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

// ------------------------------------------------ direct prefix probes

std::vector<uint32_t> Sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// 20'000 rows over small (5), medium (16, 100) and large (2000) domains.
class CompositeIndexFixture : public ::testing::Test {
 protected:
  CompositeIndexFixture()
      : rng_(11), table_(20'000, {100, 16, 5, 2000}, rng_) {}

  Rng rng_;
  ColumnTable table_;
};

TEST_F(CompositeIndexFixture, FullKeysPartitionTheRows) {
  // Every row sits under exactly one full key of a two-column index.
  const CompositeIndex index(&table_, {0, 1});
  std::vector<uint32_t> found;
  for (uint32_t v0 = 0; v0 < 100; ++v0) {
    for (uint32_t v1 = 0; v1 < 16; ++v1) {
      index.LookupPrefix(std::vector<uint32_t>{v0, v1}, &found);
    }
  }
  std::vector<uint32_t> all_rows(table_.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), 0u);
  EXPECT_EQ(Sorted(found), all_rows);
}

TEST_F(CompositeIndexFixture, FullKeyLookupMatchesReference) {
  const CompositeIndex index(&table_, {0, 1});
  for (uint32_t v0 = 0; v0 < 100; v0 += 13) {
    for (uint32_t v1 = 0; v1 < 16; v1 += 5) {
      std::vector<uint32_t> rows;
      index.LookupPrefix(std::vector<uint32_t>{v0, v1}, &rows);
      EXPECT_EQ(Sorted(rows), ReferenceRows(table_, {{0, v0}, {1, v1}}))
          << v0 << "," << v1;
    }
  }
}

TEST_F(CompositeIndexFixture, PrefixLookupMatchesReference) {
  // The largest domain leads: a handful of rows per key.
  const CompositeIndex index(&table_, {3, 0});
  for (uint32_t v = 0; v < 2000; v += 97) {
    std::vector<uint32_t> rows;
    index.LookupPrefix(std::vector<uint32_t>{v}, &rows);
    EXPECT_EQ(Sorted(rows), ReferenceRows(table_, {{3, v}})) << v;
  }
}

TEST_F(CompositeIndexFixture, MissingKeyReturnsNothing) {
  const CompositeIndex index(&table_, {1, 0});
  std::vector<uint32_t> rows;
  index.LookupPrefix(std::vector<uint32_t>{4096}, &rows);  // leading key
  EXPECT_TRUE(rows.empty());
  index.LookupPrefix(std::vector<uint32_t>{3, 100}, &rows);  // second key
  EXPECT_TRUE(rows.empty());
}

TEST_F(CompositeIndexFixture, FirstAndLastKeyReachable) {
  const CompositeIndex index(&table_, {2});
  for (uint32_t v : {0u, 4u}) {  // domain edges of a d=5 column
    std::vector<uint32_t> rows;
    index.LookupPrefix(std::vector<uint32_t>{v}, &rows);
    EXPECT_FALSE(rows.empty()) << v;
    EXPECT_EQ(Sorted(rows), ReferenceRows(table_, {{2, v}})) << v;
  }
}

TEST_F(CompositeIndexFixture, RandomPrefixesOfAThreeColumnKeyMatchReference) {
  const CompositeIndex index(&table_, {0, 1, 2});
  const uint32_t domains[] = {100, 16, 5};
  Rng rng(77);
  for (int probe = 0; probe < 200; ++probe) {
    const size_t prefix_len = static_cast<size_t>(rng.UniformInt(1, 3));
    std::vector<uint32_t> values;
    std::vector<Predicate> predicates;
    for (size_t u = 0; u < prefix_len; ++u) {
      values.push_back(
          static_cast<uint32_t>(rng.UniformInt(0, domains[u] - 1)));
      predicates.push_back(Predicate{static_cast<uint32_t>(u), values[u]});
    }
    std::vector<uint32_t> rows;
    index.LookupPrefix(values, &rows);
    EXPECT_EQ(Sorted(rows), ReferenceRows(table_, predicates))
        << "probe=" << probe;
  }
}

TEST_F(CompositeIndexFixture, MemoryAccountsKeysAndRows) {
  // The row-id permutation plus one key copy per column, 4 bytes each.
  const CompositeIndex narrow(&table_, {0});
  const CompositeIndex wide(&table_, {0, 1, 2});
  EXPECT_EQ(narrow.memory_bytes(), table_.num_rows() * 2 * sizeof(uint32_t));
  EXPECT_EQ(wide.memory_bytes(), table_.num_rows() * 4 * sizeof(uint32_t));
}

TEST_F(CompositeIndexFixture, LookupPrefixAppendsToOutput) {
  const CompositeIndex index(&table_, {2});
  std::vector<uint32_t> rows = {123'456'789u};
  index.LookupPrefix(std::vector<uint32_t>{1}, &rows);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front(), 123'456'789u);
  EXPECT_EQ(Sorted(std::vector<uint32_t>(rows.begin() + 1, rows.end())),
            ReferenceRows(table_, {{2, 1}}));
}

TEST_F(CompositeIndexFixture, ProbeRunIsOrderedByRemainingKeyColumns) {
  const CompositeIndex index(&table_, {2, 1, 0});
  const auto remaining_key_less = [&](uint32_t x, uint32_t y) {
    return std::pair(table_.at(1, x), table_.at(0, x)) <
           std::pair(table_.at(1, y), table_.at(0, y));
  };
  for (uint32_t v = 0; v < 5; ++v) {
    const std::span<const uint32_t> run =
        index.Probe(std::vector<uint32_t>{v});
    EXPECT_EQ(run.size(), ReferenceCount(table_, {{2, v}})) << v;
    EXPECT_TRUE(std::is_sorted(run.begin(), run.end(), remaining_key_less))
        << v;
  }
}

TEST_F(CompositeIndexFixture, WorksThroughTheExecutor) {
  // Each coverable prefix of a three-column key answers like the scan and
  // touches fewer rows.
  const Executor executor(&table_, {100, 16, 5, 2000});
  const CompositeIndex index(&table_, {3, 0, 1});
  const std::vector<std::vector<Predicate>> queries = {
      {{3, 42}},                    // prefix 1
      {{3, 42}, {2, 1}},            // prefix 1 plus a residual
      {{0, 7}, {3, 42}},            // prefix 2, out of key order
      {{3, 42}, {0, 7}, {1, 3}},    // the full key
      {{1, 3}, {3, 1999}, {2, 4}},  // last key value, two residuals
  };
  for (const std::vector<Predicate>& predicates : queries) {
    const ExecutionResult via_index = executor.WithIndex(predicates, index);
    const ExecutionResult via_scan = executor.ScanOnly(predicates);
    EXPECT_EQ(via_index.matches, ReferenceCount(table_, predicates));
    EXPECT_EQ(via_index.matches, via_scan.matches);
    EXPECT_LT(via_index.rows_touched, via_scan.rows_touched);
  }
}

TEST(CompositeIndexSmallTableTest, HandlesFewRows) {
  Rng rng(5);
  const ColumnTable tiny(3, {2, 2}, rng);
  const CompositeIndex index(&tiny, {0, 1});
  std::vector<uint32_t> found;
  for (uint32_t v0 = 0; v0 < 2; ++v0) {
    for (uint32_t v1 = 0; v1 < 2; ++v1) {
      index.LookupPrefix(std::vector<uint32_t>{v0, v1}, &found);
    }
  }
  // Every row sits under exactly one full key.
  EXPECT_EQ(Sorted(found), (std::vector<uint32_t>{0, 1, 2}));
}

// Property sweep: random tables and prefix probes, LookupPrefix vs brute
// force.
class CompositeIndexRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompositeIndexRandomTest, RandomProbesMatchReference) {
  Rng rng(GetParam());
  const uint64_t rows = static_cast<uint64_t>(500 + rng.UniformInt(0, 1500));
  const std::vector<uint32_t> domains = {
      static_cast<uint32_t>(rng.UniformInt(2, 50)),
      static_cast<uint32_t>(rng.UniformInt(2, 10))};
  const ColumnTable table(rows, domains, rng);
  const CompositeIndex index(&table, {0, 1});
  for (int probe = 0; probe < 50; ++probe) {
    const size_t len = static_cast<size_t>(rng.UniformInt(1, 2));
    std::vector<uint32_t> values;
    std::vector<Predicate> predicates;
    for (size_t u = 0; u < len; ++u) {
      // Probe slightly outside the domain too (missing keys).
      values.push_back(static_cast<uint32_t>(
          rng.UniformInt(0, domains[u] + 1)));
      predicates.push_back(Predicate{static_cast<uint32_t>(u), values[u]});
    }
    std::vector<uint32_t> rows_found;
    index.LookupPrefix(values, &rows_found);
    EXPECT_EQ(Sorted(rows_found), ReferenceRows(table, predicates))
        << "seed=" << GetParam() << " probe=" << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeIndexRandomTest,
                         ::testing::Range<uint64_t>(1, 11));

// ----------------------------------------------------- measured cost source

class MeasuredFixture : public ::testing::Test {
 protected:
  MeasuredFixture() {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 6;
    params.queries_per_table = 8;
    params.rows_per_table_step = 20'000;
    w_ = workload::GenerateScalableWorkload(params);
    db_ = std::make_unique<Database>(&w_, 20'000, 1);
    source_ = std::make_unique<MeasuredCostSource>(db_.get(), 3, 99);
  }

  workload::Workload w_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<MeasuredCostSource> source_;
};

TEST_F(MeasuredFixture, PredicatesMatchQueryTemplates) {
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    EXPECT_EQ(source_->predicates(j).size(), w_.query(j).attributes.size());
  }
}

TEST_F(MeasuredFixture, BaseCostPositiveAndCached) {
  const double c1 = source_->BaseCost(0);
  const double c2 = source_->BaseCost(0);
  EXPECT_GT(c1, 0.0);
  EXPECT_DOUBLE_EQ(c1, c2);  // cached: identical, not just close
}

TEST_F(MeasuredFixture, SelectiveIndexBeatsScan) {
  // Find the most selective attribute of query 0 and index it.
  const workload::Query& q = w_.query(0);
  workload::AttributeId best = q.attributes.front();
  for (workload::AttributeId a : q.attributes) {
    if (w_.attribute(a).distinct_values >
        w_.attribute(best).distinct_values) {
      best = a;
    }
  }
  const double base = source_->BaseCost(0);
  const double indexed = source_->CostWithIndex(0, costmodel::Index(best));
  EXPECT_LE(indexed, base);  // never worse (optimizer min)
}

TEST_F(MeasuredFixture, IndexesAreBuiltLazilyAndCached) {
  const size_t before = source_->indexes_built();
  const costmodel::Index k(w_.query(0).attributes.front());
  source_->CostWithIndex(0, k);
  const size_t after_first = source_->indexes_built();
  EXPECT_EQ(after_first, before + 1);
  source_->CostWithIndex(0, k);
  EXPECT_EQ(source_->indexes_built(), after_first);
}

TEST_F(MeasuredFixture, IndexMemoryPositiveAndWidthMonotone) {
  const workload::Query& q = w_.query(0);
  if (q.attributes.size() < 2) GTEST_SKIP();
  const costmodel::Index narrow(q.attributes[0]);
  const costmodel::Index wide = narrow.Append(q.attributes[1]);
  EXPECT_GT(source_->IndexMemory(narrow), 0.0);
  EXPECT_LT(source_->IndexMemory(narrow), source_->IndexMemory(wide));
}

TEST_F(MeasuredFixture, WorksBehindWhatIfEngine) {
  costmodel::WhatIfEngine engine(&w_, source_.get());
  costmodel::IndexConfig config;
  config.Insert(costmodel::Index(w_.query(0).attributes.front()));
  const double cost = engine.WorkloadCost(config);
  EXPECT_GT(cost, 0.0);
  EXPECT_LE(cost, engine.WorkloadCost(costmodel::IndexConfig{}) * 1.001);
}

}  // namespace
}  // namespace idxsel::engine
