// Tests for the caching what-if engine: transparency, call accounting, and
// key canonicalization.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "costmodel/cost_model.h"
#include "costmodel/reconfiguration.h"
#include "costmodel/what_if.h"
#include "exec/parallel_for.h"
#include "rt/fault_injection.h"
#include "workload/scalable_generator.h"

namespace idxsel::costmodel {
namespace {

class WhatIfFixture : public ::testing::Test {
 protected:
  WhatIfFixture() {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 8;
    params.queries_per_table = 15;
    w_ = workload::GenerateScalableWorkload(params);
    model_ = std::make_unique<CostModel>(&w_);
    backend_ = std::make_unique<ModelBackend>(model_.get());
  }

  workload::Workload w_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<ModelBackend> backend_;
};

TEST_F(WhatIfFixture, CacheTransparency) {
  // Every cost served by the engine equals the backend's answer.
  WhatIfEngine engine(&w_, backend_.get());
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    EXPECT_DOUBLE_EQ(engine.BaseCost(j), model_->UnindexedCost(j));
    for (workload::AttributeId i : w_.query(j).attributes) {
      EXPECT_DOUBLE_EQ(engine.CostWithIndex(j, Index(i)),
                       model_->CostWithIndex(j, Index(i)));
    }
  }
}

TEST_F(WhatIfFixture, RepeatedCallsHitTheCache) {
  WhatIfEngine engine(&w_, backend_.get());
  const Index k(w_.query(0).attributes.front());
  engine.CostWithIndex(0, k);
  const uint64_t calls = engine.stats().calls;
  engine.CostWithIndex(0, k);
  engine.CostWithIndex(0, k);
  EXPECT_EQ(engine.stats().calls, calls);
  EXPECT_GE(engine.stats().cache_hits, 2u);
}

TEST_F(WhatIfFixture, InapplicableIndexDoesNotCallBackend) {
  WhatIfEngine engine(&w_, backend_.get());
  // An attribute not accessed by query 0 on the same table, or any
  // attribute of the other table, is inapplicable.
  const workload::Query& q = w_.query(0);
  workload::AttributeId other = workload::kInvalidAttribute;
  for (workload::AttributeId i = 0; i < w_.num_attributes(); ++i) {
    if (w_.attribute(i).table == q.table &&
        !std::binary_search(q.attributes.begin(), q.attributes.end(), i)) {
      other = i;
      break;
    }
  }
  ASSERT_NE(other, workload::kInvalidAttribute);
  const double base = engine.BaseCost(0);
  const uint64_t calls = engine.stats().calls;
  EXPECT_DOUBLE_EQ(engine.CostWithIndex(0, Index(other)), base);
  EXPECT_EQ(engine.stats().calls, calls);
  EXPECT_GE(engine.stats().skipped_inapplicable, 1u);
}

TEST_F(WhatIfFixture, CanonicalizationSharesEquivalentCalls) {
  WhatIfEngine engine(&w_, backend_.get());
  // Find a query with >= 2 attributes; permutations of the fully-covered
  // prefix must hit the same cache slot.
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    const auto& attrs = w_.query(j).attributes;
    if (attrs.size() < 2) continue;
    const Index ab = Index(attrs[0]).Append(attrs[1]);
    const Index ba = Index(attrs[1]).Append(attrs[0]);
    engine.CostWithIndex(j, ab);
    const uint64_t calls = engine.stats().calls;
    const double cost = engine.CostWithIndex(j, ba);
    EXPECT_EQ(engine.stats().calls, calls) << "permutation missed cache";
    EXPECT_DOUBLE_EQ(cost, model_->CostWithIndex(j, ab));
    return;
  }
  FAIL() << "no multi-attribute query in the generated workload";
}

// ------------------------------------------------ id-keyed cost cache

/// One table of 8 attributes with distinct selectivities and three reads:
/// q0 = {0, 1, 2}, q1 = {1, 3}, q2 = {0, 1, 2, 3, 4, 5}.
struct KeyedCacheSetup {
  KeyedCacheSetup() {
    const workload::TableId t = w.AddTable("t", 1 << 20);
    for (uint64_t i = 0; i < 8; ++i) w.AddAttribute(t, uint64_t{2} << i, 4);
    EXPECT_TRUE(w.AddQuery(t, {0, 1, 2}, 1.0).ok());
    EXPECT_TRUE(w.AddQuery(t, {1, 3}, 1.0).ok());
    EXPECT_TRUE(w.AddQuery(t, {0, 1, 2, 3, 4, 5}, 1.0).ok());
    w.Finalize();
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
    engine = std::make_unique<WhatIfEngine>(&w, backend.get());
  }

  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;
  std::unique_ptr<WhatIfEngine> engine;
};

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(WhatIfKeyedCacheTest, DenseMissThenKeyedPermutationIsAHit) {
  KeyedCacheSetup s;
  WhatIfEngine& engine = *s.engine;
  // (2, 0, 1) covers all of q0; its canonical tuple is (0, 1, 2).
  const kernel::IndexId id = engine.InternIndex(Index({2, 0, 1}));
  const double dense = engine.CostWithIndexDenseSlow(0, id);
  const WhatIfStats after_miss = engine.stats();
  EXPECT_EQ(after_miss.calls, 1u);
  EXPECT_EQ(after_miss.cache_hits, 0u);

  const double keyed = engine.CostWithIndex(0, Index({1, 2, 0}));
  EXPECT_EQ(engine.stats().calls, after_miss.calls)
      << "a permutation of the covered prefix missed the dense miss's entry";
  EXPECT_EQ(engine.stats().cache_hits, after_miss.cache_hits + 1);
  EXPECT_EQ(Bits(keyed), Bits(dense));
  // The backend was asked about the canonical (sorted) tuple.
  EXPECT_EQ(Bits(dense), Bits(s.model->CostWithIndex(0, Index({0, 1, 2}))));
}

TEST(WhatIfKeyedCacheTest, WideIndexWithUnusableTailSharesItsPrefixEntry) {
  KeyedCacheSetup s;
  WhatIfEngine& engine = *s.engine;
  // q1 = {1, 3} can use only (3, 1) of this width-6 index — wider than
  // the arena's inline tuples; the tail (0, 2, 4, 5) is not in q1.
  const Index wide({3, 1, 0, 2, 4, 5});
  ASSERT_GT(wide.width(), kernel::IndexArena::kInlineAttrs);
  const double prefix = engine.CostWithIndex(1, Index({1, 3}));
  const uint64_t calls = engine.stats().calls;
  EXPECT_EQ(calls, 1u);

  const double keyed = engine.CostWithIndex(1, wide);
  const kernel::IndexId id = engine.InternIndex(wide);
  const double dense = engine.CostWithIndexDenseSlow(1, id);
  EXPECT_EQ(engine.stats().calls, calls)
      << "the wide index did not share its coverable prefix's entry";
  EXPECT_EQ(Bits(keyed), Bits(prefix));
  EXPECT_EQ(Bits(dense), Bits(prefix));
  double peeked = 0.0;
  ASSERT_TRUE(engine.PeekCachedCost(1, wide, &peeked));
  EXPECT_EQ(Bits(peeked), Bits(prefix));
}

TEST(WhatIfKeyedCacheTest, PeekOnAnUnseenKeyLeavesTheArenaAlone) {
  KeyedCacheSetup s;
  WhatIfEngine& engine = *s.engine;
  const double cost = engine.CostWithIndex(0, Index(0));
  const size_t interned = engine.arena().size();
  const WhatIfStats stats = engine.stats();

  double out = -1.0;
  // A canonical tuple, (3, 4, 5), the arena never saw.
  EXPECT_FALSE(engine.PeekCachedCost(2, Index({5, 4, 3}), &out));
  EXPECT_EQ(engine.arena().size(), interned);
  // A tuple the arena knows, (0), but a query it was never priced for.
  EXPECT_FALSE(engine.PeekCachedCost(2, Index(0), &out));
  EXPECT_EQ(engine.arena().size(), interned);
  EXPECT_EQ(out, -1.0);

  ASSERT_TRUE(engine.PeekCachedCost(0, Index(0), &out));
  EXPECT_EQ(Bits(out), Bits(cost));
  EXPECT_EQ(engine.arena().size(), interned);
  EXPECT_EQ(engine.stats().calls, stats.calls);
  EXPECT_EQ(engine.stats().cache_hits, stats.cache_hits);
}

TEST_F(WhatIfFixture, ConcurrentDenseAndKeyedLookupsMakeTheSerialCalls) {
  // Lanes mix the dense API (which interns and canonicalizes from arena
  // tuples) with the keyed API (which interns canonical tuples) over the
  // same (query, prefix) keys: every key must still cost exactly one
  // backend call, and every answer must be the serial run's.
  const auto lookups = [&](WhatIfEngine& engine, size_t unit,
                           std::vector<double>* out) {
    const workload::QueryId j =
        static_cast<workload::QueryId>(unit % w_.num_queries());
    const bool dense_first = (unit / w_.num_queries()) % 2 == 0;
    const auto& attrs = w_.query(j).attributes;
    for (size_t u = 0; u < attrs.size(); ++u) {
      Index k(attrs[u]);
      if (u + 1 < attrs.size()) k = Index({attrs[u + 1], attrs[u]});
      const bool dense = dense_first == (u % 2 == 0);
      out->push_back(dense ? engine.CostWithIndexDenseSlow(
                                 j, engine.InternIndex(k))
                           : engine.CostWithIndex(j, k));
    }
  };
  const size_t units = 4 * w_.num_queries();
  std::vector<std::vector<double>> serial_values(units);
  WhatIfEngine serial(&w_, backend_.get());
  for (size_t unit = 0; unit < units; ++unit) {
    lookups(serial, unit, &serial_values[unit]);
  }

  WhatIfEngine engine(&w_, backend_.get());
  std::vector<std::vector<double>> values(units);
  exec::ParallelFor(4, units,
                    [&](size_t unit) { lookups(engine, unit, &values[unit]); });
  EXPECT_EQ(engine.stats().calls, serial.stats().calls)
      << "concurrent lanes must not duplicate backend calls";
  EXPECT_EQ(engine.stats().cache_hits, serial.stats().cache_hits);
  for (size_t unit = 0; unit < units; ++unit) {
    ASSERT_EQ(values[unit].size(), serial_values[unit].size());
    for (size_t u = 0; u < values[unit].size(); ++u) {
      EXPECT_EQ(Bits(values[unit][u]), Bits(serial_values[unit][u]))
          << "unit " << unit << " lookup " << u;
    }
  }
}

TEST_F(WhatIfFixture, WorkloadCostMatchesModel) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  config.Insert(Index(w_.query(0).attributes.front()));
  double expected = 0.0;
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    expected += w_.query(j).frequency * model_->CostOneIndex(j, config);
  }
  EXPECT_NEAR(engine.WorkloadCost(config), expected, expected * 1e-12);
}

TEST_F(WhatIfFixture, ConfigMemorySumsIndexSizes) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  config.Insert(Index(0));
  config.Insert(Index(1));
  EXPECT_DOUBLE_EQ(engine.ConfigMemory(config),
                   model_->IndexMemory(Index(0)) +
                       model_->IndexMemory(Index(1)));
}

TEST_F(WhatIfFixture, InvalidateCostCacheForcesRecalls) {
  WhatIfEngine engine(&w_, backend_.get());
  engine.BaseCost(0);
  const uint64_t calls = engine.stats().calls;
  engine.InvalidateCostCache();
  engine.BaseCost(0);
  EXPECT_EQ(engine.stats().calls, calls + 1);
}

TEST_F(WhatIfFixture, ResetStatsZeroesCounters) {
  WhatIfEngine engine(&w_, backend_.get());
  engine.BaseCost(0);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().calls, 0u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST_F(WhatIfFixture, ResetStatsKeepsCacheGaugesInSyncWithLiveCaches) {
  // Regression: ResetStats() resets *call accounting* only. The cache-size
  // gauges mirror live cache contents and must survive a stats reset, then
  // drop when the caches are actually invalidated.
  obs::Gauge* cost_entries =
      obs::Registry::Default().GetGauge("idxsel.whatif.cost_cache_entries");
  obs::Gauge* config_entries =
      obs::Registry::Default().GetGauge("idxsel.whatif.config_cache_entries");
  const int64_t cost_before = cost_entries->Value();
  const int64_t config_before = config_entries->Value();
  {
    WhatIfEngine engine(&w_, backend_.get());
    for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
      for (workload::AttributeId i : w_.query(j).attributes) {
        engine.CostWithIndex(j, Index(i));
      }
    }
    IndexConfig config;
    config.Insert(Index(w_.query(0).attributes.front()));
    engine.CostWithConfig(0, config);
    const int64_t cost_filled = cost_entries->Value();
    const int64_t config_filled = config_entries->Value();
    EXPECT_GT(cost_filled, cost_before);
    EXPECT_GT(config_filled, config_before);

    engine.ResetStats();
    EXPECT_EQ(engine.stats().calls, 0u);
    EXPECT_EQ(cost_entries->Value(), cost_filled)
        << "ResetStats must not desynchronize the cost-cache gauge";
    EXPECT_EQ(config_entries->Value(), config_filled)
        << "ResetStats must not desynchronize the config-cache gauge";

    engine.InvalidateCostCache();
    EXPECT_EQ(cost_entries->Value(), cost_before);
    EXPECT_EQ(config_entries->Value(), config_before);
  }
  // Engine destruction pays back whatever its caches still held.
  EXPECT_EQ(cost_entries->Value(), cost_before);
  EXPECT_EQ(config_entries->Value(), config_before);
}

TEST_F(WhatIfFixture, ConfigCostMatchesMultiIndexModel) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  config.Insert(Index(w_.query(0).attributes.front()));
  if (w_.query(0).attributes.size() > 1) {
    config.Insert(Index(w_.query(0).attributes.back()));
  }
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    EXPECT_DOUBLE_EQ(engine.CostWithConfig(j, config),
                     model_->CostMultiIndex(j, config));
  }
}

TEST_F(WhatIfFixture, ConfigCostCachedPerRelevantSubset) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  config.Insert(Index(w_.query(0).attributes.front()));
  engine.CostWithConfig(0, config);
  const uint64_t calls = engine.stats().calls;
  // Adding an index of the *other* table must not invalidate the cache
  // entry for query 0 (key canonicalized to same-table indexes).
  const workload::TableId other_table = 1 - w_.query(0).table;
  config.Insert(Index(w_.table(other_table).attributes.front()));
  engine.CostWithConfig(0, config);
  EXPECT_EQ(engine.stats().calls, calls);
}

TEST_F(WhatIfFixture, ConfigCostAtMostOneIndexCost) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  for (workload::AttributeId a : w_.query(0).attributes) {
    config.Insert(Index(a));
  }
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    EXPECT_LE(engine.CostWithConfig(j, config),
              engine.CostWithIndex(j, Index(w_.query(0).attributes.front())) *
                  (1.0 + 1e-12));
  }
}

// ------------------------------------------------------- reconfiguration

TEST_F(WhatIfFixture, ReconfigurationCosts) {
  WhatIfEngine engine(&w_, backend_.get());
  ReconfigurationParams params;
  params.create_factor = 2.0;
  params.drop_cost = 10.0;
  const ReconfigurationModel reconfig(&engine, params);

  IndexConfig old_config;
  old_config.Insert(Index(0));
  old_config.Insert(Index(1));
  IndexConfig new_config;
  new_config.Insert(Index(1));
  new_config.Insert(Index(2));

  // Create (2), keep (1), drop (0).
  const double expected = 2.0 * engine.IndexMemory(Index(2)) + 10.0;
  EXPECT_DOUBLE_EQ(reconfig.Cost(new_config, old_config), expected);
}

TEST_F(WhatIfFixture, ReconfigurationIdenticalConfigsAreFree) {
  WhatIfEngine engine(&w_, backend_.get());
  const ReconfigurationModel reconfig(&engine);
  IndexConfig config;
  config.Insert(Index(0));
  EXPECT_DOUBLE_EQ(reconfig.Cost(config, config), 0.0);
}

// ------------------------------------------------------- cache hashing

TEST(WhatIfHashTest, CostKeyHashSpreadsLowAndHighBits) {
  // The cost cache's key is one word, CostCacheKey: the query in the high
  // half, the canonical tuple's arena id in the low half. Sequential
  // queries and sequential ids are the common keys, and both bit ends of
  // CostCacheKeyHash matter: unordered_map buckets consume the low bits,
  // exec::ShardedMap's shard choice the high bits.
  constexpr size_t kQueries = 512;
  constexpr size_t kIds = 64;
  constexpr size_t kBuckets = 256;
  std::vector<size_t> low(kBuckets, 0);
  std::vector<size_t> high(kBuckets, 0);
  for (workload::QueryId j = 0; j < kQueries; ++j) {
    for (kernel::IndexId id = 0; id < kIds; ++id) {
      const uint64_t h = CostCacheKeyHash{}(CostCacheKey(j, id));
      ++low[h & (kBuckets - 1)];
      ++high[h >> 56];
    }
  }
  const size_t expected = kQueries * kIds / kBuckets;
  for (size_t b = 0; b < kBuckets; ++b) {
    EXPECT_GT(low[b], expected / 2) << "low-bit bucket " << b;
    EXPECT_LT(low[b], expected * 2) << "low-bit bucket " << b;
    EXPECT_GT(high[b], expected / 2) << "high-bit bucket " << b;
    EXPECT_LT(high[b], expected * 2) << "high-bit bucket " << b;
  }
  // Distinct (query, id) pairs are distinct keys.
  EXPECT_NE(CostCacheKey(1, 0), CostCacheKey(0, 1));
}

TEST(WhatIfHashTest, IndexHashFinalizationSpreadsSequentialAttributes) {
  // Single-attribute indexes over sequential attribute ids are the
  // adversarial input for the raw Index::Hash chain; IndexHash's
  // SplitMix64 finalizer must spread them over any power-of-two mask.
  constexpr size_t kIndexes = 16 * 1024;
  constexpr size_t kBuckets = 64;
  std::vector<size_t> bucket(kBuckets, 0);
  IndexHash hasher;
  for (workload::AttributeId i = 0; i < kIndexes; ++i) {
    ++bucket[hasher(Index(i)) & (kBuckets - 1)];
  }
  const size_t expected = kIndexes / kBuckets;
  for (size_t b = 0; b < kBuckets; ++b) {
    EXPECT_GT(bucket[b], expected * 3 / 4) << "bucket " << b;
    EXPECT_LT(bucket[b], expected * 5 / 4) << "bucket " << b;
  }
}

// --------------------------------------------------------- concurrency

TEST_F(WhatIfFixture, ConcurrentLookupsAreExactlyOncePerKey) {
  // Hammer one engine from several lanes with overlapping lookups: the
  // sharded caches must compute every key exactly once, so the backend
  // call count equals the serial run's and every answer stays truthful.
  WhatIfEngine serial_engine(&w_, backend_.get());
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    serial_engine.BaseCost(j);
    for (workload::AttributeId i : w_.query(j).attributes) {
      serial_engine.CostWithIndex(j, Index(i));
    }
  }
  const uint64_t serial_calls = serial_engine.stats().calls;

  WhatIfEngine engine(&w_, backend_.get());
  std::atomic<int> mismatches{0};
  exec::ParallelFor(4, 4 * w_.num_queries(), [&](size_t unit) {
    const workload::QueryId j = unit % w_.num_queries();
    if (engine.BaseCost(j) != model_->UnindexedCost(j)) {
      mismatches.fetch_add(1);
    }
    for (workload::AttributeId i : w_.query(j).attributes) {
      if (engine.CostWithIndex(j, Index(i)) !=
          model_->CostWithIndex(j, Index(i))) {
        mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.stats().calls, serial_calls)
      << "concurrent lanes must not duplicate backend calls";
  EXPECT_GT(engine.stats().cache_hits, 0u);
}

TEST_F(WhatIfFixture, ConcurrentStatsAccountingBalances) {
  // calls + cache_hits together must equal the number of cost lookups
  // issued, even when lanes race on the same keys.
  WhatIfEngine engine(&w_, backend_.get());
  constexpr size_t kLanes = 4;
  constexpr size_t kRepeats = 50;
  uint64_t lookups = 0;
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    lookups += w_.query(j).attributes.size();
  }
  exec::ParallelFor(kLanes, kLanes * kRepeats, [&](size_t unit) {
    const size_t seed = unit * 2654435761u;
    for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
      const workload::QueryId q =
          (j + seed) % w_.num_queries();
      for (workload::AttributeId i : w_.query(q).attributes) {
        engine.CostWithIndex(q, Index(i));
      }
    }
  });
  const WhatIfStats stats = engine.stats();
  EXPECT_EQ(stats.calls + stats.cache_hits, kLanes * kRepeats * lookups);
  EXPECT_EQ(stats.calls, lookups);  // exactly-once per distinct key
}

// ------------------------------------------------- F(I*) contract

/// Logs every backend call, in order, before forwarding it.
class RecordingBackend : public WhatIfBackend {
 public:
  RecordingBackend(const WhatIfBackend* inner, std::vector<std::string>* log)
      : inner_(inner), log_(log) {}

  double BaseCost(QueryId j) const override {
    log_->push_back("base " + std::to_string(j));
    return inner_->BaseCost(j);
  }
  double CostWithIndex(QueryId j, const Index& k) const override {
    log_->push_back("cost " + std::to_string(j) + " " + k.ToString());
    return inner_->CostWithIndex(j, k);
  }
  double CostWithConfig(QueryId j, const IndexConfig& config) const override {
    log_->push_back("config " + std::to_string(j) + " " + config.ToString());
    return inner_->CostWithConfig(j, config);
  }
  double IndexMemory(const Index& k) const override {
    log_->push_back("memory " + k.ToString());
    return inner_->IndexMemory(k);
  }
  double MaintenanceCost(QueryId j, const Index& k) const override {
    log_->push_back("maintenance " + std::to_string(j) + " " + k.ToString());
    return inner_->MaintenanceCost(j, k);
  }

 private:
  const WhatIfBackend* inner_;
  std::vector<std::string>* log_;
};

/// F(I*) the obvious way: every query against every configured index, in
/// configuration order, through the keyed API only.
double NaiveWorkloadCost(WhatIfEngine& engine, const IndexConfig& config) {
  const workload::Workload& w = engine.workload();
  double total = 0.0;
  for (QueryId j = 0; j < w.num_queries(); ++j) {
    double best = engine.BaseCost(j);
    for (const Index& k : config.indexes()) {
      if (engine.Applicable(j, k)) {
        best = std::min(best, engine.CostWithIndex(j, k));
      }
    }
    total += w.query(j).frequency * best;
  }
  for (const Index& k : config.indexes()) total += engine.MaintenancePenalty(k);
  return total;
}

/// 2-4 tables of 3-7 attributes; no query touches a table's last
/// attribute, and `write_share` of the templates are writes.
workload::Workload RandomWorkload(uint64_t seed, double write_share) {
  Rng rng(seed);
  workload::Workload w;
  const int64_t tables = rng.UniformInt(2, 4);
  for (int64_t t = 0; t < tables; ++t) {
    const auto table = w.AddTable(std::string("t").append(std::to_string(t)),
                                  static_cast<uint64_t>(
                                      rng.UniformInt(1'000, 2'000'000)));
    const int64_t attrs = rng.UniformInt(3, 7);
    for (int64_t i = 0; i < attrs; ++i) {
      w.AddAttribute(table,
                     static_cast<uint64_t>(rng.UniformInt(1, 500'000)),
                     rng.UniformInt(0, 1) == 0 ? 4u : 8u);
    }
  }
  const int64_t queries = rng.UniformInt(20, 60);
  for (int64_t q = 0; q < queries; ++q) {
    const auto table =
        static_cast<workload::TableId>(rng.UniformInt(0, tables - 1));
    const auto& attrs = w.table(table).attributes;
    std::vector<AttributeId> picked;
    const int64_t width = rng.UniformInt(1, 4);
    for (int64_t u = 0; u < width; ++u) {
      picked.push_back(attrs[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(attrs.size()) - 2))]);
    }
    const auto kind = rng.NextDouble() < write_share
                          ? workload::QueryKind::kWrite
                          : workload::QueryKind::kRead;
    EXPECT_TRUE(w.AddQuery(table, std::move(picked),
                           static_cast<double>(rng.UniformInt(1, 10'000)),
                           kind)
                    .ok());
  }
  w.Finalize();
  return w;
}

/// Up to 12 random indexes of width 1-3 over any attribute (unused ones
/// included); half of them also bring a sibling with the same leading
/// attribute.
IndexConfig RandomConfig(const workload::Workload& w, Rng& rng) {
  std::vector<Index> indexes;
  const int64_t n = rng.UniformInt(0, 12);
  for (int64_t c = 0; c < n; ++c) {
    const auto table = static_cast<workload::TableId>(
        rng.UniformInt(0, static_cast<int64_t>(w.num_tables()) - 1));
    std::vector<AttributeId> attrs = w.table(table).attributes;
    for (size_t u = 0; u + 1 < attrs.size(); ++u) {  // Fisher-Yates
      std::swap(attrs[u], attrs[static_cast<size_t>(rng.UniformInt(
                              static_cast<int64_t>(u),
                              static_cast<int64_t>(attrs.size()) - 1))]);
    }
    const Index k(std::vector<AttributeId>(
        attrs.begin(), attrs.begin() + rng.UniformInt(1, 3)));
    indexes.push_back(k);
    if (rng.UniformInt(0, 1) == 0) {
      indexes.push_back(k.Prefix(1).Append(attrs.back()));
    }
  }
  return IndexConfig(std::move(indexes));
}

/// One cold engine over Recording(optional FaultInjecting(model)).
struct ContractSide {
  ContractSide(const workload::Workload& w,
               const rt::FaultInjectionOptions* faults)
      : model(&w), plain(&model) {
    if (faults != nullptr) {
      chaos = std::make_unique<rt::FaultInjectingBackend>(&plain, *faults);
    }
    recorder = std::make_unique<RecordingBackend>(
        chaos != nullptr ? static_cast<const WhatIfBackend*>(chaos.get())
                         : &plain,
        &log);
    engine = std::make_unique<WhatIfEngine>(&w, recorder.get());
  }

  CostModel model;
  ModelBackend plain;
  std::unique_ptr<rt::FaultInjectingBackend> chaos;
  std::vector<std::string> log;
  std::unique_ptr<RecordingBackend> recorder;
  std::unique_ptr<WhatIfEngine> engine;
};

/// Prices `configs` in order on a production side and a naive side, both
/// cold at the start, and requires the same bits, counters and backend
/// call sequence after every configuration.
/// Returns the production side's sanitized count.
uint64_t ExpectSameAsNaive(const workload::Workload& w,
                           const std::vector<IndexConfig>& configs,
                           const rt::FaultInjectionOptions* faults) {
  ContractSide fast(w, faults);
  ContractSide naive(w, faults);
  for (size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE("configuration " + std::to_string(c) + " " +
                 configs[c].ToString());
    const double got = fast.engine->WorkloadCost(configs[c]);
    const double want = NaiveWorkloadCost(*naive.engine, configs[c]);
    EXPECT_EQ(Bits(got), Bits(want)) << got << " vs " << want;
    const WhatIfStats a = fast.engine->stats();
    const WhatIfStats b = naive.engine->stats();
    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.skipped_inapplicable, b.skipped_inapplicable);
    EXPECT_EQ(a.sanitized, b.sanitized);
    EXPECT_EQ(fast.engine->health().ToString(),
              naive.engine->health().ToString());
    EXPECT_EQ(fast.log, naive.log);
    if (faults != nullptr) {
      EXPECT_EQ(fast.chaos->stats().calls, naive.chaos->stats().calls);
      EXPECT_EQ(fast.chaos->stats().total_injected(),
                naive.chaos->stats().total_injected());
    }
  }
  return fast.engine->stats().sanitized;
}

TEST(WorkloadCostContractTest, MatchesNaiveLoopOnRandomWorkloads) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const workload::Workload w = RandomWorkload(seed, seed % 2 ? 0.3 : 0.0);
    Rng rng(seed * 7919);
    std::vector<IndexConfig> configs;
    for (int c = 0; c < 6; ++c) configs.push_back(RandomConfig(w, rng));
    ExpectSameAsNaive(w, configs, nullptr);
  }
}

TEST(WorkloadCostContractTest, SharedLeadingAttributesEmptyAndUnused) {
  const workload::Workload w = RandomWorkload(99, 0.25);
  const AttributeId a = w.query(0).attributes.front();
  const auto& table = w.table(w.attribute(a).table).attributes;
  const AttributeId unused = table.back();  // no query touches it
  ASSERT_TRUE(w.queries_with(unused).empty());
  std::vector<Index> family = {Index(a), Index(unused)};
  for (AttributeId b : table) {
    if (b == a) continue;
    family.push_back(Index(a).Append(b));
    family.push_back(Index(unused).Append(b == unused ? a : b));
  }
  family.push_back(Index(a).Append(table.back()).Append(table.front() == a
                                                            ? table[1]
                                                            : table.front()));
  const IndexConfig shared(family);
  ASSERT_GE(shared.size(), 5u);
  const IndexConfig unused_only({Index(unused), Index(unused).Append(a)});
  ExpectSameAsNaive(w, {IndexConfig{}, shared, unused_only, IndexConfig{},
                        shared},
                    nullptr);
}

TEST(WorkloadCostContractTest, MatchesNaiveLoopUnderFaultInjection) {
  uint64_t sanitized = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const workload::Workload w = RandomWorkload(seed + 100, 0.3);
    Rng rng(seed * 104729);
    std::vector<IndexConfig> configs;
    for (int c = 0; c < 5; ++c) configs.push_back(RandomConfig(w, rng));
    rt::FaultInjectionOptions faults;
    faults.seed = seed;
    faults.nan_probability = 0.05;
    faults.inf_probability = 0.05;
    faults.negative_probability = 0.05;
    sanitized += ExpectSameAsNaive(w, configs, &faults);
  }
  EXPECT_GT(sanitized, 0u) << "no fault reached a sanitizer";
}

}  // namespace
}  // namespace idxsel::costmodel
