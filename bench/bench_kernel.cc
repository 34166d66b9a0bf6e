// Ablation — the flat cost-evaluation kernel (src/kernel/): interned
// dense lookups vs hashed keyed lookups, posting-list mask-filter hit
// rates, Fig.6-sized H6 step latency with steady-state allocation counts
// per step from a global operator-new tally, the kernel's branch-free
// benefit reduction vs the branchy serial loop ("simd" in the JSON),
// F(I*) of an advise-wide selection vs the naive query-by-index loop
// ("workload_cost"), the what-if miss path on an advise-paper input
// ("whatif_miss": time and allocations per backend miss, allocations per
// Recommend), and the QueryMasks allocation contract.
//
// Emits `bench_kernel.json` (sidecar, next to the other bench CSVs) with
// p50/p95 per-step times. The committed repo-root `BENCH_kernel.json`
// holds two such documents, a parent's run and a change's, under
// "parent" and "change", with the machine they ran on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "bench_common.h"
#include "common/format.h"
#include "kernel/kernel.h"
#include "obs/report.h"

// ------------------------------------------------- allocation accounting
// Counts every global allocation in the process; the H6 sections diff the
// counter around SelectRecursive to show the kernel's steady-state step
// loop allocates O(1) per committed step instead of O(candidates).

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, every one of them: where GCC 12 inlines one side of a
// pair into a caller it sees malloc or free meet the other side's
// operator, and -Werror=mismatched-new-delete stops the build (Release
// and sanitizer trees inline differently, so each side can be the one).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace idxsel::bench {
namespace {

using Clock = std::chrono::steady_clock;

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t at = std::min(v.size() - 1,
                             static_cast<size_t>(p * (v.size() - 1) + 0.5));
  return v[at];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The Fig. 6 workload (N = 100, Q = 100): large enough that an H6 round
/// touches thousands of (query, index) cost resolutions, small enough for
/// the quick bench mode.
workload::Workload Fig6Workload() {
  workload::ScalableWorkloadParams params;
  params.num_tables = 2;
  params.attributes_per_table = 50;
  params.queries_per_table = 50;
  return workload::GenerateScalableWorkload(params);
}

// ----------------------------------------- interned vs hashed lookups

struct LookupResult {
  double hashed_ns = 0.0;
  double dense_ns = 0.0;
  uint64_t lookups = 0;
};

/// Warm-cache cost resolution: the same (query, index) pairs priced
/// through the sharded hash cache (key canonicalization, an arena lookup
/// of the canonical tuple, a 64-bit key) and through the dense
/// IndexId-slot table. Width-1 and width-2 keys, the mix an H6 append
/// round produces.
LookupResult LookupMicrobench(costmodel::WhatIfEngine& engine,
                              const workload::Workload& w,
                              uint64_t target_lookups) {
  struct Pair {
    workload::QueryId j;
    costmodel::Index k;
    kernel::IndexId id;
    uint32_t slot;
  };
  std::vector<Pair> pairs;
  for (workload::AttributeId a = 0; a < w.num_attributes(); ++a) {
    const kernel::IndexId single = engine.InternIndex(costmodel::Index(a));
    const auto& posting = w.queries_with(a);
    // One width-2 extension per single, as append evaluation would make.
    kernel::IndexId ext = kernel::kInvalidIndexId;
    costmodel::Index ext_key(a);
    for (workload::QueryId j : posting) {
      for (workload::AttributeId b : w.query(j).attributes) {
        if (b == a) continue;
        ext = engine.arena().InternAppend(single, b);
        ext_key = engine.MaterializeIndex(ext);
        break;
      }
      if (ext != kernel::kInvalidIndexId) break;
    }
    for (uint32_t s = 0; s < posting.size(); ++s) {
      pairs.push_back(Pair{posting[s], costmodel::Index(a), single, s});
      if (ext != kernel::kInvalidIndexId) {
        pairs.push_back(Pair{posting[s], ext_key, ext, s});
      }
    }
  }

  // Warm both caches so the loops below measure lookup machinery, not
  // backend pricing.
  double sink = 0.0;
  for (const Pair& p : pairs) {
    sink += engine.CostWithIndex(p.j, p.k);
    sink += engine.CostWithIndexDense(p.j, p.id, p.slot);
  }

  LookupResult result;
  const uint64_t sweeps =
      std::max<uint64_t>(1, target_lookups / std::max<size_t>(1, pairs.size()));
  result.lookups = sweeps * pairs.size();

  const double hashed_start = NowSeconds();
  for (uint64_t r = 0; r < sweeps; ++r) {
    for (const Pair& p : pairs) sink += engine.CostWithIndex(p.j, p.k);
  }
  result.hashed_ns = (NowSeconds() - hashed_start) * 1e9 /
                     static_cast<double>(result.lookups);

  const double dense_start = NowSeconds();
  for (uint64_t r = 0; r < sweeps; ++r) {
    for (const Pair& p : pairs) {
      sink += engine.CostWithIndexDense(p.j, p.id, p.slot);
    }
  }
  result.dense_ns = (NowSeconds() - dense_start) * 1e9 /
                    static_cast<double>(result.lookups);

  if (sink == -1.0) std::printf("unreachable\n");  // keep the loops alive
  return result;
}

// ------------------------------------------- SIMD cost-reduction leg

bool AssertMode() {
  const char* v = std::getenv("IDXSEL_BENCH_ASSERT");
  return v != nullptr && v[0] == '1';
}

/// splitmix64: deterministic fill for the microbench blocks.
uint64_t Mix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct SimdResult {
  double benefit_ref_ns = 0.0;   ///< branchy serial loop
  double benefit_simd_ns = 0.0;  ///< kernel::ReduceBenefitIndexed
  uint64_t elements = 0;
};

/// The dense cost reduction written the obvious way: one branch per
/// element on data crafted to mispredict (~50/50 random gain signs) —
/// exactly the pattern an H6 move evaluation streams through. The
/// kernel's masked keep must beat this by >= 2x (asserted under
/// IDXSEL_BENCH_ASSERT=1).
double BranchyBenefit(const double* costs, const uint32_t* qids,
                      const double* best, const double* freq, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double gain = best[qids[t]] - costs[t];
    if (gain > 0.0) acc += freq[qids[t]] * gain;
  }
  return acc;
}

SimdResult SimdMicrobench() {
  constexpr size_t kBlock = 1u << 16;  // L2-resident: measures the ALUs,
                                       // not DRAM
  constexpr size_t kNumQueries = 256;  // best/freq stay L1-resident
  const uint64_t passes = FullMode() ? 1200 : 300;

  std::vector<double> costs(kBlock);
  std::vector<double> best(kNumQueries), freq(kNumQueries);
  std::vector<uint32_t> qids(kBlock);
  uint64_t rng = 0xb41c4ull;
  for (size_t j = 0; j < kNumQueries; ++j) {
    best[j] = 64.0 + static_cast<double>(Mix64(rng) % 1024) / 8.0;
    freq[j] = 1.0 + static_cast<double>(Mix64(rng) % 32);
  }
  for (size_t t = 0; t < kBlock; ++t) {
    // Costs straddle the best[] range -> gain signs flip unpredictably.
    costs[t] = static_cast<double>(Mix64(rng) % 2048) / 8.0;
    qids[t] = static_cast<uint32_t>(Mix64(rng) % kNumQueries);
  }

  SimdResult result;
  result.elements = passes * kBlock;
  const double denom = static_cast<double>(result.elements);
  double sink = 0.0;

  const auto time_leg = [&](auto&& fn) {
    const double start = NowSeconds();
    for (uint64_t p = 0; p < passes; ++p) sink += fn();
    return (NowSeconds() - start) * 1e9 / denom;
  };

  result.benefit_ref_ns = time_leg([&] {
    return BranchyBenefit(costs.data(), qids.data(), best.data(), freq.data(),
                          kBlock);
  });
  result.benefit_simd_ns = time_leg([&] {
    return kernel::ReduceBenefitIndexed(costs.data(), qids.data(),
                                        best.data(), freq.data(), kBlock);
  });
  if (sink == -1.0) std::printf("unreachable\n");

  // The kernel loop is not just fast, it is the *same number* as the
  // branchy loop — recheck the contract on the bench's own data.
  const double ref =
      BranchyBenefit(costs.data(), qids.data(), best.data(), freq.data(),
                     kBlock);
  const double got = kernel::ReduceBenefitIndexed(
      costs.data(), qids.data(), best.data(), freq.data(), kBlock);
  if (std::memcmp(&ref, &got, sizeof ref) != 0) {
    std::fprintf(stderr,
                 "bench_kernel: benefit reduction diverged from the "
                 "serial loop (%.17g vs %.17g)\n",
                 ref, got);
    std::exit(1);
  }
  return result;
}

// ------------------------------------------- F(I*) of a selection leg

/// F(I*) the naive way: every query against every configured index, in
/// configuration order, through the keyed API. WhatIfEngine::WorkloadCost
/// must return the same bits, and under IDXSEL_BENCH_ASSERT=1 at least
/// 10x faster on the advise-wide selection.
double NaiveWorkloadCost(costmodel::WhatIfEngine& engine,
                         const costmodel::IndexConfig& config) {
  const workload::Workload& w = engine.workload();
  double total = 0.0;
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    double best = engine.BaseCost(j);
    for (const costmodel::Index& k : config.indexes()) {
      if (engine.Applicable(j, k)) {
        best = std::min(best, engine.CostWithIndex(j, k));
      }
    }
    total += w.query(j).frequency * best;
  }
  for (const costmodel::Index& k : config.indexes()) {
    total += engine.MaintenancePenalty(k);
  }
  return total;
}

struct WorkloadCostResult {
  size_t tables = 0;
  size_t queries = 0;
  size_t indexes = 0;
  double fast_ms = 0.0;        ///< WorkloadCost(selection), warm, median
  double naive_ms = 0.0;       ///< NaiveWorkloadCost(selection)
  double one_fast_ms = 0.0;    ///< the same on a one-index configuration
  double one_naive_ms = 0.0;
};

/// The advise-wide request shape (2,000 tables x 8 attributes x 4
/// templates, 10M-row cap, generator seed 1000): Recommend at w = 0.2
/// picks the selection, and its closing F(I*) leaves the engine warm.
WorkloadCostResult WorkloadCostMicrobench() {
  workload::ScalableWorkloadParams params;
  params.num_tables = 2000;
  params.attributes_per_table = 8;
  params.queries_per_table = 4;
  params.rows_per_table_cap = 10'000'000;
  params.seed = 1000;
  ModelSetup setup(workload::GenerateScalableWorkload(params));
  advisor::AdvisorOptions options;
  options.budget_fraction = 0.2;
  options.threads = 1;
  const auto rec = advisor::Recommend(*setup.engine, options);
  if (!rec.ok() || rec->selection.empty()) {
    std::fprintf(stderr, "bench_kernel: advise-wide Recommend failed\n");
    std::exit(1);
  }
  const costmodel::IndexConfig& selection = rec->selection;
  const costmodel::IndexConfig one({selection.indexes().front()});
  costmodel::WhatIfEngine& engine = *setup.engine;

  const int fast_reps = FullMode() ? 101 : 21;
  const int naive_reps = FullMode() ? 15 : 5;
  double sink = 0.0;
  const auto median_ms = [&](int reps, auto&& fn) {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      const double start = NowSeconds();
      sink += fn();
      samples.push_back((NowSeconds() - start) * 1e3);
    }
    return Percentile(samples, 0.5);
  };

  WorkloadCostResult result;
  result.tables = setup.w.num_tables();
  result.queries = setup.w.num_queries();
  result.indexes = selection.size();
  result.fast_ms =
      median_ms(fast_reps, [&] { return engine.WorkloadCost(selection); });
  result.naive_ms = median_ms(
      naive_reps, [&] { return NaiveWorkloadCost(engine, selection); });
  result.one_fast_ms =
      median_ms(fast_reps, [&] { return engine.WorkloadCost(one); });
  result.one_naive_ms =
      median_ms(fast_reps, [&] { return NaiveWorkloadCost(engine, one); });
  if (sink == -1.0) std::printf("unreachable\n");

  // Same number, not just faster.
  for (const costmodel::IndexConfig* config : {&selection, &one}) {
    const double got = engine.WorkloadCost(*config);
    const double want = NaiveWorkloadCost(engine, *config);
    if (std::memcmp(&got, &want, sizeof got) != 0) {
      std::fprintf(stderr,
                   "bench_kernel: WorkloadCost diverged from the naive "
                   "loop (%.17g vs %.17g)\n",
                   got, want);
      std::exit(1);
    }
  }
  return result;
}

// ------------------------------------------------- what-if miss path

struct WhatIfMissResult {
  size_t queries = 0;
  size_t attributes = 0;
  uint64_t steps = 0;             ///< H6 steps of one Recommend
  uint64_t whatif_calls = 0;      ///< backend calls of one Recommend
  double cost_ratio = 0.0;        ///< cost_after / cost_before
  uint64_t recommend_allocs = 0;  ///< global allocations in one Recommend
  double recommend_ms = 0.0;      ///< median
  uint64_t misses = 0;            ///< backend calls of the miss sweep
  double miss_ns = 0.0;           ///< per miss, median sweep
  double allocs_per_miss = 0.0;
};

/// The advise-paper request shape (T = 10, N_t = 50, Q_t = 100, t * 1M
/// rows, generator seed 1000, w = 0.2) with observability off, as
/// bench_e2e runs it. Each Recommend gets a fresh engine over one
/// CostModel, after one unmeasured warm-up; the allocation count is one
/// Recommend's and must not vary between them. The miss sweep prices, on
/// a fresh engine each time, every query against each of its attributes
/// and against each adjacent pair of them in descending order (an H6
/// append's shape: canonicalized by a sort), all through the dense API —
/// every lookup a distinct canonical key, so every one is a backend miss.
WhatIfMissResult WhatIfMissMicrobench() {
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  workload::ScalableWorkloadParams params;
  params.num_tables = 10;
  params.attributes_per_table = 50;
  params.queries_per_table = 100;
  params.seed = 1000;
  const workload::Workload w = workload::GenerateScalableWorkload(params);
  const costmodel::CostModel model(&w);
  costmodel::ModelBackend backend(&model);
  advisor::AdvisorOptions options;
  options.budget_fraction = 0.2;
  options.threads = 1;

  WhatIfMissResult result;
  result.queries = w.num_queries();
  result.attributes = w.num_attributes();
  const int reps = FullMode() ? 15 : 5;
  std::vector<double> recommend_ms;
  for (int rep = 0; rep <= reps; ++rep) {
    costmodel::WhatIfEngine engine(&w, &backend);
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const double start = NowSeconds();
    const auto rec = advisor::Recommend(engine, options);
    const double elapsed = NowSeconds() - start;
    const uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (!rec.ok() || rec->selection.empty()) {
      std::fprintf(stderr, "bench_kernel: advise-paper Recommend failed\n");
      std::exit(1);
    }
    if (rep == 0) continue;  // warm-up: first-use registrations
    recommend_ms.push_back(elapsed * 1e3);
    if (rep == 1) {
      result.steps = rec->trace.size();
      result.whatif_calls = engine.stats().calls;
      result.cost_ratio = rec->cost_after / rec->cost_before;
      result.recommend_allocs = allocs;
    } else if (allocs != result.recommend_allocs) {
      std::fprintf(stderr,
                   "bench_kernel: Recommend allocations vary between fresh "
                   "engines (%llu vs %llu)\n",
                   static_cast<unsigned long long>(allocs),
                   static_cast<unsigned long long>(result.recommend_allocs));
      std::exit(1);
    }
  }
  result.recommend_ms = Percentile(recommend_ms, 0.5);

  std::vector<double> miss_ns;
  for (int rep = 0; rep < reps; ++rep) {
    costmodel::WhatIfEngine engine(&w, &backend);
    struct Lookup {
      workload::QueryId j;
      kernel::IndexId id;
    };
    std::vector<Lookup> lookups;
    for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
      const auto& attrs = w.query(j).attributes;
      for (size_t u = 0; u < attrs.size(); ++u) {
        const kernel::IndexId single =
            engine.InternIndex(costmodel::Index(attrs[u]));
        lookups.push_back({j, single});
        if (u > 0) {
          lookups.push_back(
              {j, engine.arena().InternAppend(single, attrs[u - 1])});
        }
      }
    }
    double sink = 0.0;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const double start = NowSeconds();
    for (const Lookup& l : lookups) {
      sink += engine.CostWithIndexDenseSlow(l.j, l.id);
    }
    const double elapsed = NowSeconds() - start;
    const uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (sink == -1.0) std::printf("unreachable\n");
    result.misses = engine.stats().calls;
    if (result.misses != lookups.size()) {
      std::fprintf(stderr,
                   "bench_kernel: miss sweep made %llu backend calls for "
                   "%zu distinct keys\n",
                   static_cast<unsigned long long>(result.misses),
                   lookups.size());
      std::exit(1);
    }
    miss_ns.push_back(elapsed * 1e9 / static_cast<double>(result.misses));
    result.allocs_per_miss =
        static_cast<double>(allocs) / static_cast<double>(result.misses);
  }
  result.miss_ns = Percentile(miss_ns, 0.5);
  obs::SetEnabled(obs_was_enabled);
  return result;
}

// ------------------------------------- QueryMasks allocation accounting

/// QueryMasks construction is allocation-lean by contract (kernel.h): a
/// fixed number of container reservations, never a per-query temporary.
/// Build masks for two workload sizes and compare global-new deltas: the
/// counts must be equal (size-independent) and tiny.
struct MaskAllocResult {
  uint64_t small_allocs = 0;
  uint64_t large_allocs = 0;
  size_t small_queries = 0;
  size_t large_queries = 0;
};

MaskAllocResult QueryMasksAllocMicrobench() {
  const auto measure = [](const workload::Workload& w) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    kernel::QueryMasks masks(w);
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    // Keep the object alive across the read so nothing is elided.
    if (masks.posting_size(0) == ~size_t{0}) std::printf("unreachable\n");
    return after - before;
  };
  workload::ScalableWorkloadParams params;
  params.num_tables = 2;
  params.attributes_per_table = 20;
  params.queries_per_table = 25;
  const workload::Workload small = workload::GenerateScalableWorkload(params);
  params.attributes_per_table = 50;
  params.queries_per_table = 200;
  const workload::Workload large = workload::GenerateScalableWorkload(params);

  MaskAllocResult result;
  result.small_queries = small.num_queries();
  result.large_queries = large.num_queries();
  result.small_allocs = measure(small);
  result.large_allocs = measure(large);
  return result;
}

// --------------------------------------------------- H6 step latency

struct H6Stats {
  std::vector<double> step_ms;  ///< one sample per committed h6.round
  double total_seconds = 0.0;
  uint64_t steps = 0;
  uint64_t whatif_calls = 0;
  uint64_t allocations = 0;        ///< warm reps only
  uint64_t fast_path_hits = 0;
  uint64_t fallback_lookups = 0;
  uint64_t filtered_queries = 0;
};

uint64_t CounterDelta(const obs::RunReport& report, const char* name) {
  const auto it = report.metrics.counters.find(name);
  return it == report.metrics.counters.end() ? 0 : it->second;
}

/// Runs H6 `reps` times on one engine (first rep cold — excluded from the
/// step samples — the rest steady-state warm) and collects per-round span
/// durations, kernel counters, and the allocation tally.
H6Stats RunH6(costmodel::WhatIfEngine& engine, double budget, int reps) {
  H6Stats stats;
  core::RecursiveOptions options;
  options.budget = budget;
  options.threads = 1;
  for (int rep = 0; rep < reps; ++rep) {
    obs::RunScope scope("bench_kernel.h6");
    const uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    const double start = NowSeconds();
    const core::RecursiveResult r = core::SelectRecursive(engine, options);
    const double elapsed = NowSeconds() - start;
    const uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    const obs::RunReport report = scope.Finish();
    if (rep == 0) {
      stats.steps = r.trace.size();
      stats.whatif_calls = r.whatif_calls;
      stats.fast_path_hits =
          CounterDelta(report, "idxsel.kernel.fast_path_hits");
      stats.fallback_lookups =
          CounterDelta(report, "idxsel.kernel.fallback_lookups");
      stats.filtered_queries =
          CounterDelta(report, "idxsel.kernel.filtered_queries");
      continue;  // cold run: arena interning + backend pricing, not steady
    }
    stats.total_seconds += elapsed;
    stats.allocations += allocs;
    for (const obs::SpanRecord& span : report.spans) {
      if (std::strcmp(span.name, "h6.round") == 0) {
        stats.step_ms.push_back(static_cast<double>(span.duration_ns) / 1e6);
      }
    }
  }
  return stats;
}

// --------------------------------------------------------------- report

std::string JsonDocument(const workload::Workload& w, double budget_w,
                         const LookupResult& lookup, const H6Stats& h6,
                         const SimdResult& simd,
                         const WorkloadCostResult& fstar,
                         const WhatIfMissResult& miss,
                         const MaskAllocResult& mask_allocs) {
  const double steps_per_rep =
      h6.step_ms.empty() ? 0.0 : static_cast<double>(h6.step_ms.size());
  char buf[2048];
  std::string out = "{\n" + SidecarHeaderJson("idxsel.bench_kernel.v1");
  std::snprintf(buf, sizeof buf,
                "  \"workload\": {\"tables\": 2, \"attributes\": %zu, "
                "\"queries\": %zu, \"budget_w\": %.2f},\n",
                w.num_attributes(), w.num_queries(), budget_w);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"lookup\": {\"lookups\": %llu, \"hashed_ns\": %.1f, "
      "\"dense_ns\": %.1f, \"speedup\": %.2f},\n",
      static_cast<unsigned long long>(lookup.lookups), lookup.hashed_ns,
      lookup.dense_ns,
      lookup.dense_ns > 0.0 ? lookup.hashed_ns / lookup.dense_ns : 0.0);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"posting_filter\": {\"fast_path_hits\": %llu, "
      "\"fallback_lookups\": %llu, \"filtered_queries\": %llu, "
      "\"filter_rate\": %.4f},\n",
      static_cast<unsigned long long>(h6.fast_path_hits),
      static_cast<unsigned long long>(h6.fallback_lookups),
      static_cast<unsigned long long>(h6.filtered_queries),
      h6.fast_path_hits + h6.fallback_lookups + h6.filtered_queries > 0
          ? static_cast<double>(h6.filtered_queries) /
                static_cast<double>(h6.fast_path_hits + h6.fallback_lookups +
                                    h6.filtered_queries)
          : 0.0);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"h6\": {\"steps\": %llu, \"whatif_calls\": %llu, "
      "\"step_samples\": %zu, \"step_p50_ms\": %.4f, "
      "\"step_p95_ms\": %.4f, \"step_mean_ms\": %.4f, "
      "\"allocations_per_step\": %.1f},\n",
      static_cast<unsigned long long>(h6.steps),
      static_cast<unsigned long long>(h6.whatif_calls), h6.step_ms.size(),
      Percentile(h6.step_ms, 0.50), Percentile(h6.step_ms, 0.95),
      Mean(h6.step_ms),
      steps_per_rep > 0.0 ? static_cast<double>(h6.allocations) / steps_per_rep
                          : 0.0);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"simd\": {\"elements\": %llu, "
      "\"benefit_ref_ns\": %.2f, \"benefit_simd_ns\": %.2f, "
      "\"benefit_speedup\": %.2f},\n",
      static_cast<unsigned long long>(simd.elements), simd.benefit_ref_ns,
      simd.benefit_simd_ns,
      simd.benefit_simd_ns > 0.0 ? simd.benefit_ref_ns / simd.benefit_simd_ns
                                 : 0.0);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"workload_cost\": {\"tables\": %zu, \"queries\": %zu, "
      "\"indexes\": %zu, \"fast_ms\": %.3f, \"naive_ms\": %.3f, "
      "\"speedup\": %.1f, \"one_index_fast_ms\": %.3f, "
      "\"one_index_naive_ms\": %.3f},\n",
      fstar.tables, fstar.queries, fstar.indexes, fstar.fast_ms,
      fstar.naive_ms,
      fstar.fast_ms > 0.0 ? fstar.naive_ms / fstar.fast_ms : 0.0,
      fstar.one_fast_ms, fstar.one_naive_ms);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"whatif_miss\": {\"tables\": 10, \"attributes\": %zu, "
      "\"queries\": %zu, \"budget_w\": 0.20, \"steps\": %llu, "
      "\"whatif_calls\": %llu, \"cost_ratio\": %.17g, "
      "\"recommend_allocs\": %llu, \"recommend_ms\": %.3f, "
      "\"misses\": %llu, \"miss_ns\": %.1f, "
      "\"allocs_per_miss\": %.2f},\n",
      miss.attributes, miss.queries,
      static_cast<unsigned long long>(miss.steps),
      static_cast<unsigned long long>(miss.whatif_calls), miss.cost_ratio,
      static_cast<unsigned long long>(miss.recommend_allocs),
      miss.recommend_ms, static_cast<unsigned long long>(miss.misses),
      miss.miss_ns, miss.allocs_per_miss);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"querymasks\": {\"small_queries\": %zu, \"small_allocs\": %llu, "
      "\"large_queries\": %zu, \"large_allocs\": %llu}\n}\n",
      mask_allocs.small_queries,
      static_cast<unsigned long long>(mask_allocs.small_allocs),
      mask_allocs.large_queries,
      static_cast<unsigned long long>(mask_allocs.large_allocs));
  out += buf;
  return out;
}

void WriteJson(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernel: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("results written to %s\n", path.c_str());
}

void Run() {
  const int reps = FullMode() ? 9 : 5;
  const uint64_t target_lookups = FullMode() ? 8'000'000 : 2'000'000;
  const double budget_w = 0.5;  // deep enough to commit append (morph) steps

  workload::Workload w = Fig6Workload();
  std::printf(
      "Kernel ablation on the Fig. 6 workload: N=%zu, Q=%zu, w=%.2f, "
      "%d reps (first cold, excluded).\n\n",
      w.num_attributes(), w.num_queries(), budget_w, reps);

  // Interned vs hashed lookups (one warm engine).
  ModelSetup lookup_setup(w);
  const LookupResult lookup =
      LookupMicrobench(*lookup_setup.engine, w, target_lookups);
  std::printf(
      "warm cost lookups (%llu): hashed cache %.1f ns, dense table %.1f "
      "ns  -> %.2fx\n\n",
      static_cast<unsigned long long>(lookup.lookups), lookup.hashed_ns,
      lookup.dense_ns, lookup.hashed_ns / lookup.dense_ns);

  // H6 step latency on its own engine.
  const costmodel::CostModel model(&w);
  const double budget = model.Budget(budget_w);
  ModelSetup h6_setup(w);
  const H6Stats h6 = RunH6(*h6_setup.engine, budget, reps);

  TablePrinter table({"steps", "what-if calls", "step p50 (ms)",
                      "step p95 (ms)", "step mean (ms)", "allocs/step"});
  table.AddRow(
      {FormatCount(static_cast<int64_t>(h6.steps)),
       FormatCount(static_cast<int64_t>(h6.whatif_calls)),
       FormatDouble(Percentile(h6.step_ms, 0.50), 4),
       FormatDouble(Percentile(h6.step_ms, 0.95), 4),
       FormatDouble(Mean(h6.step_ms), 4),
       FormatDouble(static_cast<double>(h6.allocations) /
                        static_cast<double>(
                            std::max<size_t>(1, h6.step_ms.size())),
                    1)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "posting-list filter: %llu fast-path hits, %llu fallback lookups, "
      "%llu queries mask-filtered per run\n\n",
      static_cast<unsigned long long>(h6.fast_path_hits),
      static_cast<unsigned long long>(h6.fallback_lookups),
      static_cast<unsigned long long>(h6.filtered_queries));

  // Cost-reduction leg: the kernel's branch-free reduction vs the branchy
  // serial loop, on mispredict-hostile data.
  const SimdResult simd = SimdMicrobench();
  const double benefit_speedup = simd.benefit_simd_ns > 0.0
                                     ? simd.benefit_ref_ns /
                                           simd.benefit_simd_ns
                                     : 0.0;
  std::printf(
      "cost reduction (%llu elems): benefit %.2f -> %.2f ns/elem "
      "(%.2fx)\n",
      static_cast<unsigned long long>(simd.elements), simd.benefit_ref_ns,
      simd.benefit_simd_ns, benefit_speedup);

  // F(I*) of an advise-wide selection: the leading-attribute run walk vs
  // the naive loop over every (query, index) pair.
  const WorkloadCostResult fstar = WorkloadCostMicrobench();
  const double fstar_speedup =
      fstar.fast_ms > 0.0 ? fstar.naive_ms / fstar.fast_ms : 0.0;
  std::printf(
      "F(I*) on %zu tables, %zu queries: %zu indexes %.3f ms vs naive "
      "%.3f ms (%.1fx); one index %.3f ms vs naive %.3f ms\n",
      fstar.tables, fstar.queries, fstar.indexes, fstar.fast_ms,
      fstar.naive_ms, fstar_speedup, fstar.one_fast_ms, fstar.one_naive_ms);

  // The what-if miss path on an advise-paper input.
  const WhatIfMissResult miss = WhatIfMissMicrobench();
  std::printf(
      "what-if misses on advise-paper (%zu queries, w=0.20): Recommend "
      "%.3f ms, %llu steps, %llu what-if calls, %llu allocations; miss "
      "sweep %.1f ns and %.2f allocations per miss (%llu misses)\n",
      miss.queries, miss.recommend_ms,
      static_cast<unsigned long long>(miss.steps),
      static_cast<unsigned long long>(miss.whatif_calls),
      static_cast<unsigned long long>(miss.recommend_allocs), miss.miss_ns,
      miss.allocs_per_miss, static_cast<unsigned long long>(miss.misses));

  // QueryMasks allocation contract: fixed reservation count, independent
  // of workload size.
  const MaskAllocResult mask_allocs = QueryMasksAllocMicrobench();
  std::printf(
      "querymasks construction: %llu allocs @ %zu queries, %llu allocs @ "
      "%zu queries (contract: equal and tiny)\n\n",
      static_cast<unsigned long long>(mask_allocs.small_allocs),
      mask_allocs.small_queries,
      static_cast<unsigned long long>(mask_allocs.large_allocs),
      mask_allocs.large_queries);

  if (AssertMode()) {
    if (benefit_speedup < 2.0) {
      std::fprintf(stderr,
                   "bench_kernel: FAIL benefit reduction %.2fx < 2x over "
                   "the branchy dense cost-reduction loop\n",
                   benefit_speedup);
      std::exit(1);
    }
    if (fstar_speedup < 10.0) {
      std::fprintf(stderr,
                   "bench_kernel: FAIL F(I*) of the advise-wide selection "
                   "%.1fx < 10x over the naive query-by-index loop\n",
                   fstar_speedup);
      std::exit(1);
    }
    if (mask_allocs.small_allocs != mask_allocs.large_allocs ||
        mask_allocs.small_allocs > 8) {
      std::fprintf(stderr,
                   "bench_kernel: FAIL QueryMasks allocations not "
                   "size-independent (%llu vs %llu) or not tiny — a "
                   "per-query temporary crept back into construction\n",
                   static_cast<unsigned long long>(mask_allocs.small_allocs),
                   static_cast<unsigned long long>(mask_allocs.large_allocs));
      std::exit(1);
    }
  }

  const std::string json =
      JsonDocument(w, budget_w, lookup, h6, simd, fstar, miss, mask_allocs);
  WriteJson("bench_kernel.json", json);
}

}  // namespace
}  // namespace idxsel::bench

int main() {
  idxsel::bench::ObsSession obs("bench_kernel");
  idxsel::bench::Run();
  return 0;
}
