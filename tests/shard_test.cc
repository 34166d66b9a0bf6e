// idxsel::shard test suite — the bit-identity contract of the sharded
// selector (doc/sharding.md) plus the partition / compression units
// underneath it.
//
// The headline assertions:
//   * SelectSharded == SelectRecursive bitwise — selection, trace values,
//     frontier, objective, memory, and selector-level what-if call count —
//     at every shard count and thread count (compression off).
//   * Advisor-level determinism matrix: shards {1,4,16} x threads {1,4} x
//     SIMD dispatch {native, forced scalar} produce byte-identical
//     recommendations and journal sidecars.
//   * Chaos: one shard with a garbage-returning backend degrades the
//     result flag, never the budget feasibility.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
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
#include "shard/partition.h"
#include "shard/sharded_selector.h"
#include "workload/compression.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using advisor::AdvisorOptions;
using advisor::Recommendation;
using advisor::StrategyKind;
using costmodel::CostModel;
using costmodel::ModelBackend;
using costmodel::WhatIfEngine;
using shard::ShardedOptions;
using shard::ShardedResult;
using shard::ShardSet;
using shard::ShardWorkload;

struct Env {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;

  explicit Env(uint32_t tables = 12, uint32_t attrs = 8,
               uint32_t queries = 10, uint64_t seed = 7) {
    workload::ScalableWorkloadParams params;
    params.num_tables = tables;
    params.attributes_per_table = attrs;
    params.queries_per_table = queries;
    params.seed = seed;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
  }
};

// ---------------------------------------------------------------------------
// Partition units.
// ---------------------------------------------------------------------------

TEST(PartitionTest, CoversEveryQueryBearingTableExactlyOnce) {
  Env env;
  const workload::CompressionOptions none{workload::CompressionMode::kNone};
  for (size_t shards : {1u, 3u, 5u, 100u}) {
    const ShardSet set = shard::PartitionByTable(env.w, shards, none);
    ASSERT_EQ(set.table_shard.size(), env.w.num_tables());
    std::vector<size_t> seen(env.w.num_tables(), 0);
    for (const ShardWorkload& sw : set.shards) {
      for (const workload::TableId t : sw.tables) {
        ++seen[t];
        EXPECT_EQ(set.table_shard[t],
                  static_cast<uint32_t>(&sw - set.shards.data()));
      }
    }
    size_t total_queries = 0;
    for (const ShardWorkload& sw : set.shards) {
      total_queries += sw.local.num_queries();
    }
    EXPECT_EQ(total_queries, env.w.num_queries()) << "shards=" << shards;
    for (size_t t = 0; t < env.w.num_tables(); ++t) {
      bool has_queries = false;
      for (const workload::Query& q : env.w.queries()) {
        has_queries = has_queries || q.table == t;
      }
      EXPECT_EQ(seen[t], has_queries ? 1u : 0u) << "table " << t;
      EXPECT_EQ(set.table_shard[t] == ShardSet::kNoShard, !has_queries);
    }
    // Requesting more shards than query-bearing tables clamps.
    EXPECT_LE(set.shards.size(), env.w.num_tables());
  }
}

TEST(PartitionTest, ShardViewTranslationRoundTrips) {
  Env env;
  const workload::CompressionOptions none{workload::CompressionMode::kNone};
  const ShardSet set = shard::PartitionByTable(env.w, 4, none);
  for (const ShardWorkload& sw : set.shards) {
    ASSERT_EQ(sw.query_to_global.size(), sw.local.num_queries());
    ASSERT_EQ(sw.source_queries, sw.local.num_queries());  // kNone: 1:1
    shard::ShardViewBackend view(&sw, env.backend.get());
    for (size_t j = 0; j < sw.local.num_queries(); ++j) {
      const workload::Query& lq =
          sw.local.queries()[j];
      const workload::Query& gq =
          env.w.queries()[sw.query_to_global[j]];
      EXPECT_EQ(lq.frequency, gq.frequency);
      ASSERT_EQ(lq.attributes.size(), gq.attributes.size());
      for (size_t a = 0; a < lq.attributes.size(); ++a) {
        EXPECT_EQ(sw.attr_to_global[lq.attributes[a]], gq.attributes[a]);
      }
      // The view must answer exactly what the global backend answers.
      EXPECT_EQ(view.BaseCost(static_cast<workload::QueryId>(j)),
                env.backend->BaseCost(sw.query_to_global[j]));
      const costmodel::Index local_single(
          {static_cast<uint32_t>(lq.attributes[0])});
      const costmodel::Index global_single(
          {static_cast<uint32_t>(gq.attributes[0])});
      EXPECT_TRUE(view.ToGlobal(local_single) == global_single);
      EXPECT_EQ(view.CostWithIndex(static_cast<workload::QueryId>(j),
                                   local_single),
                env.backend->CostWithIndex(sw.query_to_global[j],
                                           global_single));
    }
  }
}

// ---------------------------------------------------------------------------
// Compression v2 units.
// ---------------------------------------------------------------------------

/// A workload with exact duplicate templates on purpose.
workload::Workload DuplicateHeavyWorkload() {
  workload::Workload w;
  for (int t = 0; t < 3; ++t) {
    std::string name = "t";
    name += static_cast<char>('0' + t);
    w.AddTable(name, 100000);
  }
  std::vector<workload::AttributeId> attrs;
  for (uint32_t t = 0; t < 3; ++t) {
    for (uint64_t a = 0; a < 4; ++a) {
      attrs.push_back(w.AddAttribute(t, 1000 + 100 * a, 8));
    }
  }
  // Table 0: three copies of {a0,a1}, one {a2}. Table 1: two copies of
  // {a4}. Table 2: distinct sets only.
  auto add = [&w](workload::TableId t,
                  std::vector<workload::AttributeId> as, double f) {
    ASSERT_TRUE(w.AddQuery(t, as, f).ok());
  };
  add(0, {attrs[0], attrs[1]}, 10);
  add(0, {attrs[1], attrs[0]}, 20);  // same set, different order
  add(0, {attrs[0], attrs[1]}, 30);
  add(0, {attrs[2]}, 5);
  add(1, {attrs[4]}, 7);
  add(1, {attrs[4]}, 8);
  add(2, {attrs[8]}, 1);
  add(2, {attrs[9]}, 2);
  w.Finalize();
  return w;
}

TEST(CompressionV2Test, DedupMergesFrequenciesAndKeepsRepresentatives) {
  const workload::Workload w = DuplicateHeavyWorkload();
  workload::CompressionOptions opts;
  opts.mode = workload::CompressionMode::kDedup;
  const workload::CompressedWorkload c = workload::CompressWorkload(w, opts);
  EXPECT_EQ(c.source_queries, w.num_queries());
  EXPECT_EQ(c.workload.num_queries(), 5u);  // 8 templates -> 5 signatures
  ASSERT_EQ(c.representative.size(), c.workload.num_queries());
  double total_before = 0.0, total_after = 0.0;
  for (const workload::Query& q : w.queries()) total_before += q.frequency;
  for (size_t j = 0; j < c.workload.num_queries(); ++j) {
    const workload::Query& cq = c.workload.queries()[j];
    total_after += cq.frequency;
    // The representative is a source template with the same signature.
    const workload::Query& rq = w.queries()[c.representative[j]];
    EXPECT_EQ(rq.table, cq.table);
    EXPECT_EQ(rq.attributes, cq.attributes);
  }
  EXPECT_EQ(total_before, total_after);
  // The merged {a0,a1} template carries 10+20+30.
  bool found = false;
  for (const workload::Query& cq : c.workload.queries()) {
    if (cq.table == 0 && cq.attributes.size() == 2) {
      EXPECT_EQ(cq.frequency, 60.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CompressionV2Test, SignatureOfMatchesDedupEquality) {
  const workload::Workload w = DuplicateHeavyWorkload();
  std::map<workload::TemplateSignature, size_t> groups;
  for (size_t j = 0; j < w.num_queries(); ++j) {
    ++groups[workload::SignatureOf(w, static_cast<workload::QueryId>(j))];
  }
  workload::CompressionOptions opts;
  opts.mode = workload::CompressionMode::kDedup;
  EXPECT_EQ(groups.size(),
            workload::CompressWorkload(w, opts).workload.num_queries());
}

TEST(CompressionV2Test, ClusterCapsTemplatesPerTablePreservingFrequency) {
  Env env(/*tables=*/4, /*attrs=*/8, /*queries=*/30);
  workload::CompressionOptions opts;
  opts.mode = workload::CompressionMode::kCluster;
  opts.max_templates_per_table = 6;
  const workload::CompressedWorkload c =
      workload::CompressWorkload(env.w, opts);
  std::vector<size_t> per_table(env.w.num_tables(), 0);
  std::vector<double> freq_before(env.w.num_tables(), 0.0);
  std::vector<double> freq_after(env.w.num_tables(), 0.0);
  for (const workload::Query& q : env.w.queries()) {
    freq_before[q.table] += q.frequency;
  }
  for (const workload::Query& q : c.workload.queries()) {
    ++per_table[q.table];
    freq_after[q.table] += q.frequency;
  }
  for (size_t t = 0; t < env.w.num_tables(); ++t) {
    EXPECT_LE(per_table[t], opts.max_templates_per_table) << "table " << t;
    EXPECT_EQ(freq_before[t], freq_after[t]) << "table " << t;
  }
  EXPECT_LE(c.ratio(), 1.0);
}

TEST(CompressionV2Test, PerTableCompressionIsPartitionInvariant) {
  // Compressing a multi-table workload equals compressing each table
  // alone — the invariance the sharded path's per-shard compression
  // rides on. Compare via the shard builder: shard {t0,t1} compressed
  // must contain exactly the per-table compressions' template multisets.
  Env env(/*tables=*/2, /*attrs=*/8, /*queries=*/40);
  workload::CompressionOptions opts;
  opts.mode = workload::CompressionMode::kCluster;
  opts.max_templates_per_table = 5;
  const ShardWorkload both =
      shard::BuildShardWorkload(env.w, {0, 1}, opts);
  const ShardWorkload only0 = shard::BuildShardWorkload(env.w, {0}, opts);
  const ShardWorkload only1 = shard::BuildShardWorkload(env.w, {1}, opts);
  EXPECT_EQ(both.local.num_queries(),
            only0.local.num_queries() + only1.local.num_queries());
  // Signature + frequency multisets must agree (in global attribute ids).
  auto multiset = [](const ShardWorkload& sw) {
    std::map<std::pair<std::vector<workload::AttributeId>, double>, size_t>
        out;
    for (const workload::Query& q : sw.local.queries()) {
      std::vector<workload::AttributeId> global_attrs;
      for (const workload::AttributeId a : q.attributes) {
        global_attrs.push_back(sw.attr_to_global[a]);
      }
      ++out[{global_attrs, q.frequency}];
    }
    return out;
  };
  auto combined = multiset(only0);
  for (const auto& [key, count] : multiset(only1)) combined[key] += count;
  EXPECT_EQ(multiset(both), combined);
}

// ---------------------------------------------------------------------------
// The bit-identity contract, selector level.
// ---------------------------------------------------------------------------

void ExpectSameAsUnsharded(const core::RecursiveResult& ref,
                           const ShardedResult& got, size_t shards,
                           size_t threads) {
  const std::string tag =
      "shards=" + std::to_string(shards) + " threads=" + std::to_string(threads);
  EXPECT_TRUE(got.status.ok()) << tag << ": " << got.status.ToString();
  EXPECT_TRUE(ref.selection == got.selection) << tag;
  EXPECT_EQ(ref.objective, got.objective) << tag;
  EXPECT_EQ(ref.memory, got.memory) << tag;
  EXPECT_EQ(ref.whatif_calls, got.whatif_calls) << tag;
  ASSERT_EQ(ref.trace.size(), got.trace.size()) << tag;
  for (size_t s = 0; s < ref.trace.size(); ++s) {
    EXPECT_EQ(ref.trace[s].kind, got.trace[s].kind) << tag << " step " << s;
    EXPECT_TRUE(ref.trace[s].before == got.trace[s].before)
        << tag << " step " << s;
    EXPECT_TRUE(ref.trace[s].after == got.trace[s].after)
        << tag << " step " << s;
    EXPECT_EQ(ref.trace[s].objective_before, got.trace[s].objective_before)
        << tag << " step " << s;
    EXPECT_EQ(ref.trace[s].objective_after, got.trace[s].objective_after)
        << tag << " step " << s;
    EXPECT_EQ(ref.trace[s].memory_delta, got.trace[s].memory_delta)
        << tag << " step " << s;
    EXPECT_EQ(ref.trace[s].ratio, got.trace[s].ratio) << tag << " step " << s;
  }
  ASSERT_EQ(ref.frontier.size(), got.frontier.size()) << tag;
  for (size_t s = 0; s < ref.frontier.size(); ++s) {
    EXPECT_EQ(ref.frontier[s], got.frontier[s]) << tag << " step " << s;
  }
}

TEST(ShardedSelectorTest, MatchesUnshardedBitwiseAcrossShardAndThreadCounts) {
  Env env;
  core::RecursiveOptions unsharded;
  unsharded.budget = env.model->Budget(0.3);
  unsharded.threads = 1;
  WhatIfEngine ref_engine(&env.w, env.backend.get());
  const core::RecursiveResult ref =
      core::SelectRecursive(ref_engine, unsharded);
  ASSERT_TRUE(ref.status.ok());
  ASSERT_GE(ref.trace.size(), 3u) << "budget too small to be interesting";
  const double cost_before = ref.trace[0].objective_before;

  for (size_t shards : {1u, 2u, 4u, 16u}) {
    for (size_t threads : {1u, 4u}) {
      ShardedOptions opts;
      opts.shards = shards;
      opts.threads = threads;
      WhatIfEngine engine(&env.w, env.backend.get());
      const ShardedResult got = shard::SelectSharded(
          engine, opts, unsharded.budget, cost_before);
      ExpectSameAsUnsharded(ref, got, shards, threads);
      EXPECT_EQ(got.stats.arbiter_rounds, ref.trace.size());
      EXPECT_LE(got.stats.shards_used, env.w.num_tables());
    }
  }
}

TEST(ShardedSelectorTest, RespectsMaxStepsAndMinRatio) {
  Env env;
  core::RecursiveOptions unsharded;
  unsharded.budget = env.model->Budget(0.3);
  unsharded.max_steps = 2;
  unsharded.threads = 1;
  WhatIfEngine ref_engine(&env.w, env.backend.get());
  const core::RecursiveResult ref =
      core::SelectRecursive(ref_engine, unsharded);
  ASSERT_EQ(ref.trace.size(), 2u);

  ShardedOptions opts;
  opts.shards = 4;
  opts.max_steps = 2;
  WhatIfEngine engine(&env.w, env.backend.get());
  const ShardedResult got = shard::SelectSharded(
      engine, opts, unsharded.budget, ref.trace[0].objective_before);
  ExpectSameAsUnsharded(ref, got, 4, 1);
}

TEST(ShardedSelectorTest, TinyBudgetAndZeroBudgetDegenerate) {
  Env env;
  // Zero budget: nothing fits; selection empty, objective = baseline.
  ShardedOptions opts;
  opts.shards = 4;
  WhatIfEngine engine(&env.w, env.backend.get());
  const ShardedResult got = shard::SelectSharded(engine, opts, 0.0, 123.5);
  EXPECT_TRUE(got.status.ok());
  EXPECT_TRUE(got.selection.empty());
  EXPECT_EQ(got.memory, 0.0);
  EXPECT_TRUE(got.trace.empty());
}

TEST(ShardedSelectorTest, SessionReuseAfterMarkDirtyStaysExact) {
  // The serve path: run, shift one table's frequencies in the live
  // workload, MarkDirty that table, run again — the second result must
  // equal a from-scratch unsharded run on the shifted workload.
  Env env;
  const double budget = env.model->Budget(0.3);
  WhatIfEngine engine(&env.w, env.backend.get());
  ShardedOptions opts;
  opts.shards = 4;
  shard::ShardedSelector session(engine, opts);
  WhatIfEngine ref1_engine(&env.w, env.backend.get());
  core::RecursiveOptions unsharded;
  unsharded.budget = budget;
  const core::RecursiveResult ref1 =
      core::SelectRecursive(ref1_engine, unsharded);
  const ShardedResult got1 =
      session.Select(budget, ref1.trace[0].objective_before);
  ExpectSameAsUnsharded(ref1, got1, 4, 1);

  // Shift every template of table 2 (global workload mutated in place,
  // as serve does), then mark only that table dirty.
  for (size_t j = 0; j < env.w.num_queries(); ++j) {
    if (env.w.queries()[j].table != 2) continue;
    ASSERT_TRUE(env.w
                    .UpdateQueryFrequency(static_cast<workload::QueryId>(j),
                                          env.w.queries()[j].frequency * 3.0)
                    .ok());
  }
  engine.InvalidateFrequencyDependentCaches();
  session.MarkDirty(2);

  WhatIfEngine ref2_engine(&env.w, env.backend.get());
  const core::RecursiveResult ref2 =
      core::SelectRecursive(ref2_engine, unsharded);
  const ShardedResult got2 =
      session.Select(budget, ref2.trace[0].objective_before);
  EXPECT_TRUE(ref2.selection == got2.selection);
  EXPECT_EQ(ref2.objective, got2.objective);
  EXPECT_EQ(ref2.memory, got2.memory);
  ASSERT_EQ(ref2.trace.size(), got2.trace.size());
  for (size_t s = 0; s < ref2.trace.size(); ++s) {
    EXPECT_TRUE(ref2.trace[s].after == got2.trace[s].after) << "step " << s;
    EXPECT_EQ(ref2.trace[s].objective_after, got2.trace[s].objective_after)
        << "step " << s;
  }
  // Only the dirty shard was rebuilt: its engine is cold, the other three
  // kept their caches, so the session's second run (whatif_calls is a
  // per-Select delta) issues strictly fewer backend calls than a
  // from-scratch sharded run on the shifted workload.
  WhatIfEngine cold_engine(&env.w, env.backend.get());
  const ShardedResult cold = shard::SelectSharded(
      cold_engine, opts, budget, ref2.trace[0].objective_before);
  EXPECT_LT(got2.whatif_calls, cold.whatif_calls);
}

// ---------------------------------------------------------------------------
// Advisor-level determinism matrix.
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, MatrixShardsThreadsDispatchByteIdentical) {
  Env env;
  obs::SetJournalEnabled(true);
  obs::Journal::Default().Clear();

  bool have_ref = false;
  Recommendation ref;
  std::string ref_journal;
  for (size_t shards : {1u, 4u, 16u}) {
    for (size_t threads : {1u, 4u}) {
      for (bool force_scalar : {false, true}) {
        const kernel::simd::ScopedForceScalar pin(force_scalar);
        AdvisorOptions options;
        options.strategy = StrategyKind::kRecursive;
        options.shards = shards;
        options.threads = threads;
        WhatIfEngine engine(&env.w, env.backend.get());
        const Result<Recommendation> got =
            advisor::Recommend(engine, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const std::string journal = obs::JournalToJsonl(got->journal);
        const std::string tag = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads) +
                                " scalar=" + (force_scalar ? "1" : "0");
        EXPECT_FALSE(journal.empty()) << tag;
        if (!have_ref) {
          have_ref = true;
          ref = *got;
          ref_journal = journal;
          EXPECT_GE(ref.trace.size(), 1u);
          continue;
        }
        EXPECT_TRUE(ref.selection == got->selection) << tag;
        EXPECT_EQ(ref.cost_before, got->cost_before) << tag;
        EXPECT_EQ(ref.cost_after, got->cost_after) << tag;
        EXPECT_EQ(ref.memory, got->memory) << tag;
        EXPECT_EQ(ref.budget, got->budget) << tag;
        ASSERT_EQ(ref.trace.size(), got->trace.size()) << tag;
        for (size_t s = 0; s < ref.trace.size(); ++s) {
          EXPECT_TRUE(ref.trace[s].after == got->trace[s].after)
              << tag << " step " << s;
          EXPECT_EQ(ref.trace[s].objective_after,
                    got->trace[s].objective_after)
              << tag << " step " << s;
          EXPECT_EQ(ref.trace[s].ratio, got->trace[s].ratio)
              << tag << " step " << s;
        }
        // The journal sidecar — the durable byte stream — must be
        // byte-identical across the whole matrix.
        EXPECT_EQ(ref_journal, journal) << tag;
      }
    }
  }
  obs::SetJournalEnabled(false);
}

TEST(ShardedDeterminismTest, ShardedAdvisorMatchesUnshardedSelection) {
  Env env;
  AdvisorOptions unsharded;
  unsharded.strategy = StrategyKind::kRecursive;
  unsharded.threads = 1;
  WhatIfEngine ref_engine(&env.w, env.backend.get());
  const Result<Recommendation> ref = advisor::Recommend(ref_engine, unsharded);
  ASSERT_TRUE(ref.ok());

  AdvisorOptions sharded = unsharded;
  sharded.shards = 4;
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> got = advisor::Recommend(engine, sharded);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(ref->selection == got->selection);
  EXPECT_EQ(ref->cost_before, got->cost_before);
  EXPECT_EQ(ref->cost_after, got->cost_after);
  EXPECT_EQ(ref->memory, got->memory);
  ASSERT_EQ(ref->trace.size(), got->trace.size());
  for (size_t s = 0; s < ref->trace.size(); ++s) {
    EXPECT_TRUE(ref->trace[s].after == got->trace[s].after) << "step " << s;
    EXPECT_EQ(ref->trace[s].objective_after, got->trace[s].objective_after)
        << "step " << s;
  }
}

TEST(ShardedDeterminismTest, ResolveShardCountGatesExtensionsAndPortfolio) {
  Env env;
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.shards = 4;
  EXPECT_EQ(advisor::ResolveShardCount(options, env.w), 4u);

  AdvisorOptions clamped = options;
  clamped.shards = 1000;
  EXPECT_EQ(advisor::ResolveShardCount(clamped, env.w),
            static_cast<size_t>(env.w.num_tables()));

  AdvisorOptions portfolio = options;
  portfolio.portfolio = {StrategyKind::kH4};
  EXPECT_EQ(advisor::ResolveShardCount(portfolio, env.w), 0u);

  AdvisorOptions paired = options;
  paired.recursive.pair_steps = true;
  EXPECT_EQ(advisor::ResolveShardCount(paired, env.w), 0u);

  AdvisorOptions swap = options;
  swap.recursive.swap_repair = true;
  EXPECT_EQ(advisor::ResolveShardCount(swap, env.w), 0u);

  AdvisorOptions h4 = options;
  h4.strategy = StrategyKind::kH4;
  EXPECT_EQ(advisor::ResolveShardCount(h4, env.w), 0u);

  // Auto mode: off below the table threshold, on at it.
  AdvisorOptions autos;
  autos.strategy = StrategyKind::kRecursive;
  autos.shards = 0;
  autos.shard_auto_min_tables = env.w.num_tables() + 1;
  EXPECT_EQ(advisor::ResolveShardCount(autos, env.w), 0u);
  autos.shard_auto_min_tables = env.w.num_tables();
  EXPECT_EQ(advisor::ResolveShardCount(autos, env.w),
            static_cast<size_t>(env.w.num_tables()));
}

// ---------------------------------------------------------------------------
// Chaos: one faulty shard backend.
// ---------------------------------------------------------------------------

TEST(ShardedChaosTest, OneFaultyShardDegradesButStaysBudgetFeasible) {
  Env env;
  const double budget = env.model->Budget(0.3);
  ShardedOptions opts;
  opts.shards = 4;
  opts.threads = 2;
  opts.wrap_backend = [](size_t s, const costmodel::WhatIfBackend& view)
      -> std::unique_ptr<costmodel::WhatIfBackend> {
    if (s != 1) return nullptr;  // only shard 1 is sick
    rt::FaultInjectionOptions fault;
    fault.seed = 17;
    fault.nan_probability = 0.3;
    fault.negative_probability = 0.1;
    return std::make_unique<rt::FaultInjectingBackend>(&view, fault);
  };
  WhatIfEngine engine(&env.w, env.backend.get());
  const ShardedResult got = shard::SelectSharded(engine, opts, budget, 0.0);
  EXPECT_TRUE(got.status.ok());
  EXPECT_TRUE(got.degraded);
  EXPECT_GE(got.stats.degraded_shards, 1u);
  EXPECT_LE(got.memory, budget);
  // Every selected index has finite, truthful memory (sanitized +inf
  // sizes can never be committed).
  for (const costmodel::Index& k : got.selection.indexes()) {
    EXPECT_TRUE(std::isfinite(env.backend->IndexMemory(k)))
        << k.ToString();
  }
  // The healthy shards' moves are unaffected: re-run without the fault
  // and check the degraded run's selection is a subset of interactions
  // that still fit the budget (weaker than equality — the sick shard's
  // corrupted answers may legitimately change its own proposals).
  ShardedOptions clean_opts;
  clean_opts.shards = 4;
  clean_opts.threads = 2;
  WhatIfEngine clean_engine(&env.w, env.backend.get());
  const ShardedResult clean =
      shard::SelectSharded(clean_engine, clean_opts, budget, 0.0);
  EXPECT_FALSE(clean.degraded);
  EXPECT_EQ(clean.stats.degraded_shards, 0u);
}

TEST(ShardedChaosTest, FaultyShardIsDeterministicAcrossRepeats) {
  Env env;
  const double budget = env.model->Budget(0.3);
  auto run = [&] {
    ShardedOptions opts;
    opts.shards = 4;
    opts.threads = 4;
    opts.wrap_backend = [](size_t s, const costmodel::WhatIfBackend& view)
        -> std::unique_ptr<costmodel::WhatIfBackend> {
      if (s != 2) return nullptr;
      rt::FaultInjectionOptions fault;
      fault.seed = 99;
      fault.nan_probability = 0.5;
      return std::make_unique<rt::FaultInjectingBackend>(&view, fault);
    };
    WhatIfEngine engine(&env.w, env.backend.get());
    return shard::SelectSharded(engine, opts, budget, 0.0);
  };
  const ShardedResult a = run();
  const ShardedResult b = run();
  EXPECT_TRUE(a.selection == b.selection);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.degraded, b.degraded);
}

}  // namespace
}  // namespace idxsel
