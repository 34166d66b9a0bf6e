// Suite for idxsel::kernel, the flat cost-evaluation kernel (interned
// indexes, attribute masks, inverted posting lists, dense delta-costed H6
// steps) that every strategy prices through. What it decides is pinned
// elsewhere — tests/reference_test.cc checks H6 against the naive
// reference bit for bit — so this file covers the kernel's own surface:
//
//   * serial runs under robustness_test.cc's fault mixes are bit-identical
//     when repeated on fresh engines and fresh injectors (the strongest
//     call-order detector we have), and parallel runs under faults and a
//     live deadline keep the chaos contract;
//   * every strategy's reported costs and memory carry the bits of a
//     keyed-only recomputation of its selection;
//   * every strategy decides the same on a warm engine, with no backend
//     call (H6's batched append path against its per-call path);
//   * its idxsel.kernel.* counters reach the run report and are
//     deterministic across thread counts;
//   * every dense engine accessor (and the bulk hit count) agrees bit for
//     bit with its keyed (per-call) twin;
//   * op-level fuzz: DenseCostTable rows of every length 0..67 with random
//     NaN patterns, the benefit reductions and the mask filter, compared
//     bit for bit with independently written serial loops, also on special
//     values, and warm-row gathers racing a thread that fills the rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "advisor/advisor.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "kernel/kernel.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "rt/fault_injection.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using advisor::AdvisorOptions;
using advisor::Recommendation;
using advisor::StrategyKind;
using costmodel::CostModel;
using costmodel::ModelBackend;
using costmodel::WhatIfEngine;
using costmodel::WhatIfStats;

struct Env {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;

  explicit Env(size_t tables = 3, size_t attrs = 12, size_t queries = 30,
               uint64_t seed = 7) {
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

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Same deterministic fault mixes as robustness_test.cc's chaos matrix.
rt::FaultInjectionOptions ChaosOptions(uint64_t seed) {
  rt::FaultInjectionOptions fopts;
  fopts.seed = seed;
  fopts.nan_probability = 0.06 * static_cast<double>(seed % 3);
  fopts.inf_probability = 0.05 * static_cast<double>((seed / 3) % 3);
  fopts.negative_probability = 0.05 * static_cast<double>((seed / 9) % 3);
  fopts.fail_after_calls = 20 * seed;
  fopts.fail_burst = seed % 6;
  fopts.healthy_calls = seed % 4;
  return fopts;
}

TEST(ChaosEquivalenceTest, ParallelStructuralUnderFaultsAndDeadline) {
  // With four lanes and a live deadline, fault placement and expiry are
  // scheduler-dependent, so bit-identity is not required — but the kernel
  // path must uphold robustness_test.cc's chaos contract: no crash, no
  // garbage, a feasible incumbent, degraded flagged when the backend
  // misbehaved.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Env env(2, 10, 20, seed);
    rt::FaultInjectingBackend chaos(env.backend.get(), ChaosOptions(seed));
    WhatIfEngine engine(&env.w, &chaos);

    AdvisorOptions options;
    options.strategy = StrategyKind::kRecursive;
    options.threads = 4;
    options.budget_fraction = 0.25;
    options.time_limit_seconds = 0.010;

    const Result<Recommendation> rec = advisor::Recommend(engine, options);
    ASSERT_TRUE(rec.ok()) << "seed=" << seed << ": "
                          << rec.status().ToString();
    EXPECT_TRUE(std::isfinite(rec->cost_after)) << "seed=" << seed;
    EXPECT_TRUE(std::isfinite(rec->memory)) << "seed=" << seed;
    EXPECT_GE(rec->cost_after, 0.0);
    EXPECT_LE(rec->memory, rec->budget + 1e-6) << "seed=" << seed;
    if (!engine.health().ok()) {
      EXPECT_TRUE(rec->degraded);
    }
  }
}

// ------------------------------------------------- serial fault probes

/// Records journal entries for the duration of one run so the byte-level
/// journal comparison has something to compare.
class ScopedJournal {
 public:
  ScopedJournal() : previous_(obs::JournalEnabled()) {
    obs::SetJournalEnabled(true);
  }
  ~ScopedJournal() { obs::SetJournalEnabled(previous_); }
  ScopedJournal(const ScopedJournal&) = delete;
  ScopedJournal& operator=(const ScopedJournal&) = delete;

 private:
  bool previous_;
};

struct Outcome {
  Recommendation rec;
  WhatIfStats engine_stats;
  rt::FaultInjectionStats backend;
};

/// One serial Recommend() on a fresh engine over a fresh fault injector.
std::optional<Outcome> RunUnderFaults(Env& env, const AdvisorOptions& options,
                                      const rt::FaultInjectionOptions& fopts,
                                      const std::string& label) {
  rt::FaultInjectingBackend chaos(env.backend.get(), fopts);
  ScopedJournal journal;
  WhatIfEngine engine(&env.w, &chaos);
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  EXPECT_TRUE(rec.ok()) << label << ": " << rec.status().ToString();
  if (!rec.ok()) return std::nullopt;
  return Outcome{*rec, engine.stats(), chaos.stats()};
}

/// What two runs decided, bit for bit: selection, figures, trace, and
/// the journal bytes — the winner's and the listed rejected candidates'
/// benefit, ratio and margin rendered at %.17g, a stronger probe than the
/// trace alone because it covers reductions that did not win.
void ExpectSameDecisions(const Recommendation& first,
                         const Recommendation& second,
                         const std::string& label) {
  EXPECT_TRUE(first.selection == second.selection) << label;
  EXPECT_EQ(first.cost_before, second.cost_before) << label;
  EXPECT_EQ(first.cost_after, second.cost_after) << label;
  EXPECT_EQ(first.memory, second.memory) << label;
  EXPECT_EQ(first.budget, second.budget) << label;
  EXPECT_EQ(first.status.code(), second.status.code()) << label;
  EXPECT_EQ(first.executed_strategy, second.executed_strategy) << label;

  ASSERT_EQ(first.trace.size(), second.trace.size()) << label;
  for (size_t s = 0; s < first.trace.size(); ++s) {
    EXPECT_TRUE(first.trace[s].after == second.trace[s].after)
        << label << " step " << s;
    EXPECT_EQ(first.trace[s].kind, second.trace[s].kind)
        << label << " step " << s;
    EXPECT_EQ(first.trace[s].ratio, second.trace[s].ratio)
        << label << " step " << s;
    EXPECT_EQ(first.trace[s].objective_after,
              second.trace[s].objective_after)
        << label << " step " << s;
  }

  EXPECT_EQ(obs::JournalToJsonl(first.journal),
            obs::JournalToJsonl(second.journal))
      << label;
}

/// Same decisions, and the same accounting: what-if calls, engine stats,
/// run-report counters and fault-injection tallies.
void ExpectSameOutcome(const Outcome& first, const Outcome& second,
                       const std::string& label) {
  ExpectSameDecisions(first.rec, second.rec, label);
  EXPECT_EQ(first.rec.whatif_calls, second.rec.whatif_calls) << label;

  EXPECT_EQ(first.engine_stats.calls, second.engine_stats.calls) << label;
  EXPECT_EQ(first.engine_stats.cache_hits, second.engine_stats.cache_hits)
      << label;
  EXPECT_EQ(first.engine_stats.skipped_inapplicable,
            second.engine_stats.skipped_inapplicable)
      << label;
  EXPECT_EQ(first.engine_stats.sanitized, second.engine_stats.sanitized)
      << label;

  // Every run-report counter, the kernel's own (fast-path hits, fallback
  // lookups, mask-filtered queries) included.
  EXPECT_EQ(first.rec.report.metrics.counters,
            second.rec.report.metrics.counters)
      << label;

  // The injector advances one PRNG per backend call: equal tallies mean
  // the same backend call sequence consumed the same PRNG stream.
  EXPECT_EQ(first.backend.calls, second.backend.calls) << label;
  EXPECT_EQ(first.backend.injected_nan, second.backend.injected_nan)
      << label;
  EXPECT_EQ(first.backend.injected_inf, second.backend.injected_inf)
      << label;
  EXPECT_EQ(first.backend.injected_negative,
            second.backend.injected_negative)
      << label;
  EXPECT_EQ(first.backend.injected_outage, second.backend.injected_outage)
      << label;
}

TEST(ChaosRepeatTest, SerialBitIdenticalUnderFaults) {
  // If the batched what-if path consulted the backend at all (it must
  // not — cold units demote to the per-call loop *before* any
  // accounting), fault placement would depend on what the dense rows
  // happened to hold and the two runs would diverge.
  for (const uint64_t seed : {3u, 7u, 11u}) {
    Env env(2, 10, 20, seed);
    rt::FaultInjectionOptions fopts;
    fopts.seed = seed;
    fopts.nan_probability = 0.06;
    fopts.inf_probability = 0.04;
    fopts.negative_probability = 0.05;
    fopts.fail_after_calls = 25 * seed;
    fopts.fail_burst = seed % 5;

    AdvisorOptions options;
    options.strategy = StrategyKind::kRecursive;
    options.threads = 1;
    options.budget_fraction = 0.25;
    options.candidate_limit = 40;

    const std::string label = "chaos seed=" + std::to_string(seed);
    const auto first = RunUnderFaults(env, options, fopts, label);
    const auto second = RunUnderFaults(env, options, fopts, label);
    ASSERT_TRUE(first.has_value() && second.has_value()) << label;
    ExpectSameOutcome(*first, *second, label);
  }
}

class ChaosMatrixRepeatTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, uint64_t>> {};

TEST_P(ChaosMatrixRepeatTest, SerialBitIdenticalUnderFaults) {
  // The probe above over robustness_test.cc's whole fault matrix, for the
  // three strategies that price through the dense kernel the most.
  const StrategyKind strategy = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  const std::string label =
      std::string(advisor::StrategyName(strategy)) +
      " seed=" + std::to_string(seed);
  Env env(2, 10, 20, seed);

  AdvisorOptions options;
  options.strategy = strategy;
  options.threads = 1;  // serial + unbounded deadline: fully deterministic
  options.budget_fraction = 0.25;
  options.candidate_limit = 40;
  options.solver.mip_gap = 0.05;

  const auto first = RunUnderFaults(env, options, ChaosOptions(seed), label);
  const auto second = RunUnderFaults(env, options, ChaosOptions(seed), label);
  ASSERT_TRUE(first.has_value() && second.has_value()) << label;
  ExpectSameOutcome(*first, *second, label);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesTimesSeeds, ChaosMatrixRepeatTest,
    ::testing::Combine(::testing::Values(StrategyKind::kRecursive,
                                         StrategyKind::kH4Skyline,
                                         StrategyKind::kCophy),
                       ::testing::Range<uint64_t>(1, 14)));

// --------------------------------------------------------- kernel telemetry

/// Run-report counters of one Recommend() on a fresh engine.
std::map<std::string, uint64_t> RunCounters(Env& env,
                                            const AdvisorOptions& options) {
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  return rec.ok() ? rec->report.metrics.counters
                  : std::map<std::string, uint64_t>{};
}

TEST(KernelTelemetryTest, CountersPopulated) {
  // A workload/budget shape that reliably commits append (morph) steps —
  // the mask filter only fires on multi-attribute extension rounds, where
  // some posting-list query lacks full cover of the extended index (same
  // shape core_test.cc uses to provoke morphing).
  Env env(2, 12, 60);
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.5;
  options.threads = 1;

  const auto counters = RunCounters(env, options);
  // An H6 run of this size resolves thousands of costs through the dense
  // table and filters non-exploiting queries by mask; all three kernel
  // counters must show up in the run report.
  const auto fast = counters.find("idxsel.kernel.fast_path_hits");
  ASSERT_NE(fast, counters.end());
  EXPECT_GT(fast->second, 0u);
  const auto fallback = counters.find("idxsel.kernel.fallback_lookups");
  ASSERT_NE(fallback, counters.end());
  EXPECT_GT(fallback->second, 0u);
  const auto filtered = counters.find("idxsel.kernel.filtered_queries");
  ASSERT_NE(filtered, counters.end());
  EXPECT_GT(filtered->second, 0u);
}

TEST(KernelTelemetryTest, FilteredQueriesDeterministicAcrossThreads) {
  // kernel.filtered_queries is a pure function of the evaluated moves, so
  // even though parallel units tally it concurrently, the total matches
  // the serial run exactly.
  Env env(2, 12, 60);
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.5;

  options.threads = 1;
  const auto a = RunCounters(env, options);
  options.threads = 4;
  const auto b = RunCounters(env, options);
  for (const char* name :
       {"idxsel.kernel.fast_path_hits", "idxsel.kernel.fallback_lookups",
        "idxsel.kernel.filtered_queries"}) {
    const auto sa = a.find(name);
    const auto sb = b.find(name);
    ASSERT_NE(sa, a.end()) << name;
    ASSERT_NE(sb, b.end()) << name;
    EXPECT_EQ(sa->second, sb->second) << name;
  }
}

// ------------------------------------------------ strategies x keyed memo

/// The workload cost of `config` read only through the keyed memo, in the
/// order WorkloadCost promises: queries by ascending id, each at its
/// cheapest applicable index (or its base cost), then every index's
/// maintenance penalty.
double KeyedWorkloadCost(WhatIfEngine& engine,
                         const costmodel::IndexConfig& config) {
  const workload::Workload& w = engine.workload();
  double total = 0.0;
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    double best = engine.BaseCost(j);
    for (const costmodel::Index& k : config.indexes()) {
      if (!engine.Applicable(j, k)) continue;
      best = std::min(best, engine.CostWithIndex(j, k));
    }
    total += w.query(j).frequency * best;
  }
  for (const costmodel::Index& k : config.indexes()) {
    total += engine.MaintenancePenalty(k);
  }
  return total;
}

class StrategyEquivalenceTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategyEquivalenceTest, CostsMatchKeyedRecomputation) {
  // Every strategy prices through the dense kernel; its reported figures
  // must carry exactly the bits a keyed-only engine computes for the same
  // selection — also after four lanes filled the dense rows concurrently.
  Env env;
  AdvisorOptions options;
  options.strategy = GetParam();
  options.candidate_limit = 60;
  for (const size_t threads : {1u, 4u}) {
    options.threads = threads;
    const std::string label = std::string(advisor::StrategyName(GetParam())) +
                              " threads=" + std::to_string(threads);
    WhatIfEngine engine(&env.w, env.backend.get());
    const Result<Recommendation> rec = advisor::Recommend(engine, options);
    ASSERT_TRUE(rec.ok()) << label << ": " << rec.status().ToString();
    EXPECT_FALSE(rec->selection.empty()) << label;

    WhatIfEngine keyed(&env.w, env.backend.get());
    EXPECT_EQ(rec->cost_before,
              KeyedWorkloadCost(keyed, costmodel::IndexConfig{}))
        << label;
    EXPECT_EQ(rec->cost_after, KeyedWorkloadCost(keyed, rec->selection))
        << label;
    double memory = 0.0;
    for (const costmodel::Index& k : rec->selection.indexes()) {
      memory += keyed.IndexMemory(k);
    }
    EXPECT_EQ(rec->memory, memory) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalenceTest,
    ::testing::Values(StrategyKind::kRecursive, StrategyKind::kH1,
                      StrategyKind::kH2, StrategyKind::kH3,
                      StrategyKind::kH4, StrategyKind::kH4Skyline,
                      StrategyKind::kH5, StrategyKind::kCophy));

// ------------------------------------------------- cold vs warm engine

/// Runs `options` twice on one engine at threads {1,4}: cold, then on the
/// rows and caches the first run filled. Warm, every H6 append unit takes
/// the batched path (GatherWarm, one bulk hit count, ReduceAppendBenefit)
/// where the cold run first evaluated it through per-call lookups, and
/// every strategy reads caches instead of the backend. Both runs must
/// decide the same, bit for bit; the warm one without a backend call and
/// with more lookups served by the dense rows.
void CheckWarmEngineDecidesTheSame(Env& env, AdvisorOptions options,
                                   const std::string& what) {
  ScopedJournal journal;
  const std::string fast = "idxsel.kernel.fast_path_hits";
  for (const size_t threads : {1u, 4u}) {
    options.threads = threads;
    const std::string label = what + " threads=" + std::to_string(threads);
    WhatIfEngine engine(&env.w, env.backend.get());
    const Result<Recommendation> cold = advisor::Recommend(engine, options);
    const Result<Recommendation> warm = advisor::Recommend(engine, options);
    ASSERT_TRUE(cold.ok() && warm.ok()) << label;
    ExpectSameDecisions(*cold, *warm, label);
    EXPECT_GT(cold->whatif_calls, 0u) << label;
    EXPECT_EQ(warm->whatif_calls, 0u) << label;
    EXPECT_GT(warm->report.metrics.counters.at(fast),
              cold->report.metrics.counters.at(fast))
        << label;
  }
}

class WarmEngineTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(WarmEngineTest, SameDecisionsOnAWarmEngine) {
  Env env;
  AdvisorOptions options;
  options.strategy = GetParam();
  options.candidate_limit = 60;
  CheckWarmEngineDecidesTheSame(env, options,
                                advisor::StrategyName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, WarmEngineTest,
    ::testing::Values(StrategyKind::kRecursive, StrategyKind::kH1,
                      StrategyKind::kH2, StrategyKind::kH3,
                      StrategyKind::kH4, StrategyKind::kH4Skyline,
                      StrategyKind::kH5, StrategyKind::kCophy));

// The H6 option variants (default strategy kRecursive).

TEST(WarmEngineVariantTest, H6WithPairSteps) {
  // Pair moves price through the same dense rows as singles and appends.
  Env env;
  AdvisorOptions options;
  options.recursive.pair_steps = true;
  options.recursive.n_best_singles = 10;
  CheckWarmEngineDecidesTheSame(env, options, "H6 pair_steps");
}

TEST(WarmEngineVariantTest, H6MultiIndexEval) {
  // Remark-2 steps price through CostWithConfig and its config cache.
  Env env;
  AdvisorOptions options;
  options.recursive.multi_index_eval = true;
  CheckWarmEngineDecidesTheSame(env, options, "H6 multi_index_eval");
}

TEST(WarmEngineVariantTest, H6TightBudgetExercisesSwapRepair) {
  // A small budget forces prune/swap repair steps.
  Env env;
  AdvisorOptions options;
  options.budget_fraction = 0.05;
  CheckWarmEngineDecidesTheSame(env, options, "H6 tight budget");
}

TEST(WarmEngineVariantTest, PortfolioRace) {
  // Lanes share one engine: cold, one lane's fills are another's warm
  // rows; warm, every lane reads finished rows.
  Env env;
  AdvisorOptions options;
  options.portfolio = {StrategyKind::kH4, StrategyKind::kH5};
  options.candidate_limit = 60;
  CheckWarmEngineDecidesTheSame(env, options, "portfolio");
}

// ------------------------------------------------------- dense engine API

TEST(DenseEngineTest, DenseLookupsMatchKeyedLookups) {
  // Below the strategies: every dense accessor agrees bit-for-bit with
  // its keyed twin, on both cold and warm lookups.
  Env env;
  WhatIfEngine dense_engine(&env.w, env.backend.get());
  WhatIfEngine keyed_engine(&env.w, env.backend.get());

  for (workload::AttributeId a = 0; a < env.w.num_attributes(); a += 3) {
    const costmodel::Index k(a);
    const kernel::IndexId id = dense_engine.InternIndex(k);
    EXPECT_EQ(dense_engine.IndexMemoryDense(id), keyed_engine.IndexMemory(k));
    EXPECT_EQ(dense_engine.MaintenancePenaltyDense(id),
              keyed_engine.MaintenancePenalty(k));
    const auto& posting = env.w.queries_with(k.leading());
    for (uint32_t s = 0; s < posting.size(); ++s) {
      const double cold =
          dense_engine.CostWithIndexDense(posting[s], id, s);
      EXPECT_EQ(cold, keyed_engine.CostWithIndex(posting[s], k))
          << "attr " << a << " slot " << s;
      // Warm: the dense row answers without consulting the backend, and
      // counts a cache hit exactly like the hashed cache would.
      const uint64_t hits_before = dense_engine.stats().cache_hits;
      EXPECT_EQ(dense_engine.CostWithIndexDense(posting[s], id, s), cold);
      EXPECT_EQ(dense_engine.stats().cache_hits, hits_before + 1);
    }
  }
  EXPECT_EQ(dense_engine.stats().calls, keyed_engine.stats().calls);
}

TEST(DenseEngineTest, BulkHitCountMatchesPerCallHits) {
  // The batched append evaluation reads a warm block with one
  // PeekDenseCostBlock and accounts it with one CountDenseHits: the bits
  // and counts of one CostWithIndexDense per slot. A cold peek consumes
  // nothing.
  Env env;
  WhatIfEngine per_call(&env.w, env.backend.get());
  WhatIfEngine bulk(&env.w, env.backend.get());
  const obs::Counter* fast =
      obs::Registry::Default().GetCounter("idxsel.kernel.fast_path_hits");
  for (workload::AttributeId a = 0; a < env.w.num_attributes(); ++a) {
    const costmodel::Index k(a);
    const kernel::IndexId pid = per_call.InternIndex(k);
    const kernel::IndexId bid = bulk.InternIndex(k);
    const auto& posting = env.w.queries_with(a);
    std::vector<uint32_t> all(posting.size()), slots;  // slots: every other
    for (uint32_t s = 0; s < posting.size(); ++s) {
      all[s] = s;
      if (s % 2 == 1) continue;
      slots.push_back(s);
      per_call.CostWithIndexDense(posting[s], pid, s);
      bulk.CostWithIndexDense(posting[s], bid, s);
    }
    const std::string label = "attr " + std::to_string(a);
    std::vector<double> out(posting.size());
    const WhatIfStats before = bulk.stats();
    uint64_t fast_before = fast->Value();
    EXPECT_EQ(bulk.PeekDenseCostBlock(bid, all.data(), all.size(), out.data()),
              posting.size() < 2)
        << label;
    ASSERT_TRUE(bulk.PeekDenseCostBlock(bid, slots.data(), slots.size(),
                                        out.data()))
        << label;
    bulk.CountDenseHits(slots.size());
    EXPECT_EQ(fast->Value() - fast_before, slots.size()) << label;
    EXPECT_EQ(bulk.stats().cache_hits - before.cache_hits, slots.size())
        << label;
    EXPECT_EQ(bulk.stats().calls, before.calls) << label;

    fast_before = fast->Value();
    for (size_t t = 0; t < slots.size(); ++t) {
      EXPECT_EQ(Bits(out[t]), Bits(per_call.CostWithIndexDense(
                                  posting[slots[t]], pid, slots[t])))
          << label << " slot " << slots[t];
    }
    EXPECT_EQ(fast->Value() - fast_before, slots.size()) << label;
  }
  EXPECT_EQ(bulk.stats().calls, per_call.stats().calls);
  EXPECT_EQ(bulk.stats().cache_hits, per_call.stats().cache_hits);
}

TEST(DenseEngineTest, MaterializeRoundTripsInterning) {
  Env env;
  WhatIfEngine engine(&env.w, env.backend.get());
  const costmodel::Index k(std::vector<workload::AttributeId>{4, 1, 9});
  const kernel::IndexId id = engine.InternIndex(k);
  EXPECT_TRUE(engine.MaterializeIndex(id) == k);
  EXPECT_EQ(engine.InternIndex(k), id);  // idempotent
}

// ------------------------------------------------------- op-level fuzz

/// splitmix64 — deterministic fuzz stream.
uint64_t Mix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Serial references, written as the kernel.h doc comments specify and
// independent of kernel.cc's branch-free loops.

double RefBenefit(const double* costs, const uint32_t* qids,
                  const double* best, const double* freq, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double gain = best[qids[t]] - costs[t];
    acc += gain > 0.0 ? freq[qids[t]] * gain : 0.0;
  }
  return acc;
}

double RefAppendBenefit(const double* costs, const double* cw,
                        const uint32_t* qids, const double* best,
                        const double* freq, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double new_cost = cw[t] < costs[t] ? cw[t] : costs[t];
    acc += freq[qids[t]] * (best[qids[t]] - new_cost);
  }
  return acc;
}

TEST(KernelRowFuzzTest, DenseCostTableRowsBitForBit) {
  // Every row length from empty to 67, several NaN densities per length,
  // values stored through the real DenseCostTable so the gather reads
  // exactly the memory it sees in production.
  kernel::DenseCostTable table;
  std::vector<double> pattern, gathered;
  std::vector<uint32_t> slots;
  kernel::IndexId next_id = 0;
  for (uint32_t n = 0; n <= 67; ++n) {
    for (const uint64_t density : {2u, 5u, 9u}) {  // ~1/2, ~1/5, ~1/9 NaN
      uint64_t rng = 0xf022ull + n * 131u + density;
      pattern.resize(n);
      size_t set_count = 0;
      for (uint32_t t = 0; t < n; ++t) {
        const uint64_t r = Mix64(rng);
        if (r % density == 0) {
          pattern[t] = std::numeric_limits<double>::quiet_NaN();
        } else {
          pattern[t] = static_cast<double>(r % 100000) / 64.0;
          ++set_count;
        }
      }
      const std::string label =
          "n=" + std::to_string(n) + " density=" + std::to_string(density);

      // Store through the table (rows exist only once a slot is Put).
      const kernel::IndexId id = next_id++;
      for (uint32_t t = 0; t < n; ++t) {
        if (!std::isnan(pattern[t])) table.Put(id, t, n, pattern[t]);
      }

      // Gather over every slot: cold iff the pattern has a NaN — a row
      // that was never Put reads as cold too.
      slots.resize(n);
      for (uint32_t t = 0; t < n; ++t) slots[t] = t;
      gathered.resize(n);
      EXPECT_EQ(table.GatherWarm(id, slots.data(), n, gathered.data()),
                set_count == n)
          << label;

      // Gather restricted to the set slots: warm, bitwise round-trip.
      slots.clear();
      for (uint32_t t = 0; t < n; ++t) {
        if (!std::isnan(pattern[t])) slots.push_back(t);
      }
      gathered.resize(slots.size());
      ASSERT_TRUE(table.GatherWarm(id, slots.data(), slots.size(),
                                   gathered.data()))
          << label;
      for (size_t t = 0; t < slots.size(); ++t) {
        EXPECT_EQ(Bits(gathered[t]), Bits(pattern[slots[t]]))
            << label << " slot " << slots[t];
      }
    }
  }
}

TEST(KernelReductionFuzzTest, BenefitReductionsBitForBit) {
  constexpr size_t kNumQueries = 61;
  std::vector<double> costs, cw, best(kNumQueries), freq(kNumQueries);
  std::vector<uint32_t> qids;
  for (size_t n = 0; n <= 67; ++n) {
    uint64_t rng = 0xbe4ef17ull + n;
    costs.resize(n);
    cw.resize(n);
    qids.resize(n);
    for (size_t j = 0; j < kNumQueries; ++j) {
      best[j] = static_cast<double>(Mix64(rng) % 8192) / 32.0;
      freq[j] = 1.0 + static_cast<double>(Mix64(rng) % 50);
    }
    for (size_t t = 0; t < n; ++t) {
      // Costs straddle best[] so gains come out positive and negative —
      // the masked keep has to disagree with a plain multiply for the
      // exact path to be meaningfully tested.
      costs[t] = static_cast<double>(Mix64(rng) % 8192) / 32.0;
      cw[t] = static_cast<double>(Mix64(rng) % 8192) / 32.0;
      qids[t] = static_cast<uint32_t>(Mix64(rng) % kNumQueries);
    }
    const std::string label = "n=" + std::to_string(n);
    EXPECT_EQ(
        Bits(RefBenefit(costs.data(), qids.data(), best.data(), freq.data(),
                        n)),
        Bits(kernel::ReduceBenefitIndexed(costs.data(), qids.data(),
                                          best.data(), freq.data(), n)))
        << "ReduceBenefitIndexed " << label;
    EXPECT_EQ(Bits(RefAppendBenefit(costs.data(), cw.data(), qids.data(),
                                    best.data(), freq.data(), n)),
              Bits(kernel::ReduceAppendBenefit(costs.data(), cw.data(),
                                               qids.data(), best.data(),
                                               freq.data(), n)))
        << "ReduceAppendBenefit " << label;
  }
}

TEST(KernelFilterFuzzTest, MaskCompactionMatchesSerialFilter) {
  std::vector<uint64_t> masks;
  std::vector<uint32_t> ref, got;
  for (size_t n = 0; n <= 67; ++n) {
    uint64_t rng = 0xfacadeull + n;
    masks.resize(n);
    for (size_t t = 0; t < n; ++t) {
      // Dense masks so the few-bit `required` below keeps a nontrivial
      // mix of slots (all-keep and all-drop runs both occur).
      masks[t] = Mix64(rng) | Mix64(rng);
    }
    const uint64_t required = Mix64(rng) & Mix64(rng) & Mix64(rng);
    ref.assign(n, 0u);
    size_t ref_count = 0;
    for (size_t t = 0; t < n; ++t) {
      if ((required & ~masks[t]) == 0) {
        ref[ref_count++] = static_cast<uint32_t>(t);
      }
    }
    got.assign(n, 0u);
    const size_t got_count =
        kernel::FilterMasks(masks.data(), n, required, got.data());
    ASSERT_EQ(got_count, ref_count) << "n=" << n;
    for (size_t t = 0; t < ref_count; ++t) {
      EXPECT_EQ(got[t], ref[t]) << "n=" << n;
    }
  }
}

TEST(KernelLoopEdgeTest, SpecialValuesMatchTheReferenceLoops) {
  // The fuzz above draws finite values only. A dropped term whose product
  // is NaN or -inf (inf x 0, inf x a negative gain) must still add +0.0,
  // as the reference's `: 0.0` does — a keep by multiplying with 0/1 would
  // leak NaN — and `cw < c ? cw : c` must keep its operand order on signed
  // zeros and NaN, which fmin would not.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values = {0.0, -0.0, tiny, 2 * tiny, 1.0,
                                      0.75, inf, -inf, nan};
  const std::vector<double> freqs = {0.0, 0.5, 1.0, 3.0, inf};
  const size_t nv = values.size();

  // One query per (best, cost, freq) triple, cw cycling through `values`.
  // Sums of one term cover NaN operands; longer sums leave them out, since
  // two NaNs of different payloads may meet there and IEEE 754 leaves open
  // which one an add returns.
  for (const bool with_nan : {true, false}) {
    std::vector<double> best, freq, costs, cw;
    std::vector<uint32_t> qids;
    for (size_t b = 0; b < nv; ++b) {
      for (size_t c = 0; c < nv; ++c) {
        for (size_t f = 0; f < freqs.size(); ++f) {
          const double w = values[(b + c + f) % nv];
          if (!with_nan && (std::isnan(values[b]) || std::isnan(values[c]) ||
                            std::isnan(w))) {
            continue;
          }
          qids.push_back(static_cast<uint32_t>(qids.size()));
          best.push_back(values[b]);
          costs.push_back(values[c]);
          cw.push_back(w);
          freq.push_back(freqs[f]);
        }
      }
    }
    const size_t len = with_nan ? 1 : 45;
    for (size_t start = 0; start < qids.size(); start += with_nan ? 1 : 7) {
      const size_t n = std::min(len, qids.size() - start);
      const double* c = costs.data() + start;
      const double* w = cw.data() + start;
      const uint32_t* q = qids.data() + start;
      const std::string label =
          "start=" + std::to_string(start) + " n=" + std::to_string(n);
      EXPECT_EQ(Bits(RefBenefit(c, q, best.data(), freq.data(), n)),
                Bits(kernel::ReduceBenefitIndexed(c, q, best.data(),
                                                  freq.data(), n)))
          << "ReduceBenefitIndexed " << label;
      EXPECT_EQ(Bits(RefAppendBenefit(c, w, q, best.data(), freq.data(), n)),
                Bits(kernel::ReduceAppendBenefit(c, w, q, best.data(),
                                                 freq.data(), n)))
          << "ReduceAppendBenefit " << label;
    }
  }

  // Dropped terms only (gains -0.0, NaN, -1): the sum is +0.0, not -0.0.
  const double zero_best[] = {-0.0, -0.0, 1.0};
  const double worse[] = {0.0, nan, 2.0};
  const double unit[] = {1.0, 1.0, 1.0};
  const uint32_t ids[] = {0, 1, 2};
  EXPECT_EQ(Bits(kernel::ReduceBenefitIndexed(worse, ids, zero_best, unit, 3)),
            Bits(0.0));

  // The filter's extremes: nothing required keeps every slot, everything
  // required keeps exactly the all-ones masks.
  const uint64_t ones = ~uint64_t{0};
  const uint64_t masks[] = {ones, 0, ones - 1, ones, uint64_t{1} << 63};
  uint32_t kept[5];
  ASSERT_EQ(kernel::FilterMasks(masks, 5, 0, kept), 5u);
  for (uint32_t t = 0; t < 5; ++t) EXPECT_EQ(kept[t], t);
  ASSERT_EQ(kernel::FilterMasks(masks, 5, ones, kept), 2u);
  EXPECT_EQ(kept[0], 0u);
  EXPECT_EQ(kept[1], 3u);
}

TEST(DenseCostTableConcurrencyTest, GatherWhileAnotherThreadFillsRows) {
  // A portfolio race at its smallest: one thread fills dense rows while
  // another probes them with GatherWarm, as H6's batched append
  // evaluation does. Each slot is one atomic, so a warm gather returns
  // exactly the stored bits. In a TSan tree (-DIDXSEL_TSAN=ON) this is
  // also the race detector's probe of the gather.
  constexpr kernel::IndexId kRows = 6;
  constexpr uint32_t kLen = 300;
  const auto value = [](kernel::IndexId id, uint32_t slot) {
    return 1.0 + static_cast<double>(id) * 1e3 + slot / 7.0;
  };
  kernel::DenseCostTable table;
  std::vector<uint32_t> slots(kLen);
  for (uint32_t s = 0; s < kLen; ++s) slots[s] = s;
  std::vector<double> out(kLen);

  // The writer starts once the reader probes, and the reader probes until
  // the writer is done, so the two overlap.
  std::atomic<bool> probing{false};
  std::atomic<bool> filled{false};
  std::thread writer([&] {
    while (!probing.load(std::memory_order_acquire)) std::this_thread::yield();
    for (kernel::IndexId id = 0; id < kRows; ++id) {
      for (uint32_t s = 0; s < kLen; ++s) table.Put(id, s, kLen, value(id, s));
    }
    filled.store(true, std::memory_order_release);
  });
  uint64_t warm_gathers = 0;
  uint64_t wrong = 0;
  probing.store(true, std::memory_order_release);
  for (uint64_t pass = 0; !filled.load(std::memory_order_acquire); ++pass) {
    const auto id = static_cast<kernel::IndexId>(pass % kRows);
    const auto n = static_cast<uint32_t>(1 + (pass * 37) % kLen);
    if (table.GatherWarm(id, slots.data(), n, out.data())) {
      ++warm_gathers;
      for (uint32_t s = 0; s < n; ++s) {
        wrong += Bits(out[s]) != Bits(value(id, s));
      }
    }
    const double single = table.Get(id, n - 1);
    wrong += !std::isnan(single) && single != value(id, n - 1);
  }
  writer.join();
  EXPECT_EQ(wrong, 0u) << warm_gathers << " warm gathers during the fill";

  for (kernel::IndexId id = 0; id < kRows; ++id) {
    ASSERT_TRUE(table.GatherWarm(id, slots.data(), kLen, out.data())) << id;
    for (uint32_t s = 0; s < kLen; ++s) {
      EXPECT_EQ(Bits(out[s]), Bits(value(id, s))) << id << " slot " << s;
    }
  }
}

}  // namespace
}  // namespace idxsel
