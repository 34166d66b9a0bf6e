// Tracked perf trajectory — the repo's PR-over-PR regression instrument.
//
// Runs H6, the advisor portfolio, and a serve-layer cold-vs-incremental
// round over a ladder of (N, Q) scale points and records, per point, the
// deterministic work metrics (committed steps, what-if calls, race
// winner, serve call counts) next to the timing-dependent ones
// (steps/sec, wall seconds, allocations/step from a global operator-new
// tally) plus the process peak RSS (obs::ResourceSampler / getrusage).
// A second, 100x-scale ladder (T in {1k, 10k, 50k} tables) drives the
// sharded advisor path (idxsel::shard, doc/sharding.md) next to the
// classic unsharded one and records the `shard` group: shards used,
// arbiter rounds, compression ratio, and wall seconds per leg.
//
// Emits `bench_trajectory.json` (sidecar) and `BENCH_trajectory.json`
// (same document; run the binary from the repo root to refresh the
// committed baseline) with schema idxsel.bench_trajectory.v1. CI's
// perf-smoke job replays this bench and gates the diff with
// `idxsel_report check-trajectory`: deterministic fields must match the
// baseline exactly; steps/sec may not drop more than 20% and peak RSS
// may not grow more than 15%. See doc/observability.md ("Perf
// trajectory").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "bench_common.h"
#include "common/float_cmp.h"
#include "common/format.h"
#include "kernel/simd.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "serve/service.h"
#include "shard/sharded_selector.h"

// ------------------------------------------------- allocation accounting

// The replacement operators below pair new->malloc with delete->free by
// construction; GCC's heuristic cannot see through the odr-replacement
// and reports a mismatch at inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace idxsel::bench {
namespace {

using Clock = std::chrono::steady_clock;

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

struct ScalePoint {
  size_t attributes_per_table;
  size_t queries_per_table;
};

struct H6Point {
  uint64_t steps = 0;         ///< committed rounds (deterministic)
  uint64_t whatif_calls = 0;  ///< engine calls, serial run (deterministic)
  double seconds = 0.0;       ///< warm-rep mean wall seconds
  double steps_per_sec = 0.0;
  double allocations_per_step = 0.0;
};

struct PortfolioPoint {
  std::string winner;         ///< executed strategy key (deterministic)
  uint64_t whatif_calls = 0;  ///< serial run (deterministic)
  double seconds = 0.0;
};

struct ServePoint {
  uint64_t cold_whatif_calls = 0;         ///< first commit (deterministic)
  uint64_t incremental_whatif_calls = 0;  ///< post-shift round (deterministic)
  /// Committed epoch after the shift (deterministic; expected 2). The
  /// incremental call count is often 0 — every (query, index) pair was
  /// priced in the cold round — so this is what distinguishes "answered
  /// from cache" from "never re-selected".
  uint64_t epoch = 0;
  double seconds = 0.0;  ///< incremental pump wall seconds
};

struct KernelSimdPoint {
  uint64_t fast_path_hits = 0;    ///< dense-row resolutions (deterministic)
  uint64_t fallback_lookups = 0;  ///< keyed-cache demotions (deterministic)
  uint64_t filtered_queries = 0;  ///< mask-filtered slots (deterministic)
  /// 1 iff a forced-scalar rerun reproduced the native-dispatch run
  /// exactly (steps, what-if calls, final objective) — the trajectory's
  /// standing record that the SIMD layer stayed bit-identical.
  uint64_t dispatch_identical = 1;
};

struct TrajectoryPoint {
  size_t n = 0;
  size_t q = 0;
  H6Point h6;
  PortfolioPoint portfolio;
  ServePoint serve;
  KernelSimdPoint kernel_simd;
  uint64_t peak_rss_kb = 0;  ///< process high-water after this point
};

/// Serial H6 at budget w: first rep cold (excluded from timing), the rest
/// steady-state warm. threads=1 keeps whatif_calls deterministic.
H6Point RunH6(costmodel::WhatIfEngine& engine, double budget, int reps) {
  H6Point point;
  core::RecursiveOptions options;
  options.budget = budget;
  options.threads = 1;
  double total_seconds = 0.0;
  uint64_t total_allocations = 0;
  int warm_reps = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    const double start = NowSeconds();
    const core::RecursiveResult r = core::SelectRecursive(engine, options);
    const double elapsed = NowSeconds() - start;
    if (rep == 0) {
      point.steps = r.trace.size();
      point.whatif_calls = r.whatif_calls;
      continue;  // cold: interning + backend pricing, not steady state
    }
    total_seconds += elapsed;
    total_allocations +=
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    ++warm_reps;
  }
  if (warm_reps > 0) {
    point.seconds = total_seconds / warm_reps;
    const double steps = static_cast<double>(point.steps);
    point.steps_per_sec = point.seconds > 0.0 ? steps / point.seconds : 0.0;
    point.allocations_per_step =
        steps > 0.0 ? static_cast<double>(total_allocations) /
                          (steps * static_cast<double>(warm_reps))
                    : 0.0;
  }
  return point;
}

/// Serial portfolio race (H6 primary vs H4/H5) on a fresh engine so each
/// point's what-if accounting starts from zero.
PortfolioPoint RunPortfolio(const workload::Workload& w, double budget) {
  ModelSetup setup(w);
  advisor::AdvisorOptions options;
  options.strategy = advisor::StrategyKind::kRecursive;
  options.portfolio = {advisor::StrategyKind::kH4,
                       advisor::StrategyKind::kH5};
  options.candidate_limit = 200;
  options.budget_bytes = budget;
  options.threads = 1;
  PortfolioPoint point;
  const double start = NowSeconds();
  const auto rec = advisor::Recommend(*setup.engine, options);
  point.seconds = NowSeconds() - start;
  if (rec.ok()) {
    point.winner = advisor::StrategyKey(rec->executed_strategy);
    point.whatif_calls = rec->whatif_calls;
  } else {
    point.winner = "error";
  }
  return point;
}

/// Serve layer: one in-memory AdvisorService per point — a cold first
/// commit, then a single-template frequency shift re-selected on the
/// warm engine. Both call counts are deterministic (threads=1); CI gates
/// them exactly and the incremental count staying below the cold one is
/// the serve layer's standing regression check (bench_serve drills in).
ServePoint RunServe(const workload::Workload& w, double budget) {
  ServePoint point;
  workload::NamedWorkload base;
  base.attribute_names.reserve(w.num_attributes());
  for (workload::AttributeId i = 0;
       i < static_cast<workload::AttributeId>(w.num_attributes()); ++i) {
    const workload::AttributeStats& a = w.attribute(i);
    base.attribute_names.push_back(w.table(a.table).name + ".a" +
                                   std::to_string(a.ordinal));
  }
  base.workload = w;

  serve::ServiceOptions options;
  options.advisor.threads = 1;
  options.advisor.budget_bytes = budget;
  options.hooks.sleep = [](double) {};
  auto service = serve::AdvisorService::Start(
      base, serve::MakeModelBackendFactory(), options);
  if (!service.ok()) return point;
  const auto boot = (*service)->Pump();
  if (!boot.ok()) return point;
  point.cold_whatif_calls = boot->whatif_calls;

  const workload::Query& hottest = w.query(0);
  serve::WorkloadDelta shift;
  shift.kind = serve::DeltaKind::kFrequencyShift;
  shift.table = hottest.table;
  shift.attributes = hottest.attributes;
  shift.frequency = hottest.frequency * 3.0;
  if (!(*service)->Submit(shift).ok()) return point;
  const double start = NowSeconds();
  const auto incremental = (*service)->Pump();
  point.seconds = NowSeconds() - start;
  if (incremental.ok() && incremental->committed) {
    point.incremental_whatif_calls = incremental->whatif_calls;
    point.epoch = incremental->epoch;
  }
  return point;
}

/// One serial H6 per dispatch pin (native, then forced scalar), each on
/// a fresh engine: records the kernel counters of the
/// native run and whether the scalar rerun was work-identical. All four
/// fields are deterministic, so check-trajectory gates them exactly.
KernelSimdPoint RunKernelSimd(const workload::Workload& w, double budget) {
  KernelSimdPoint point;
  core::RecursiveOptions options;
  options.budget = budget;
  options.threads = 1;
  struct Signature {
    size_t steps = 0;
    uint64_t whatif_calls = 0;
    double objective = 0.0;
  } sig[2];
  for (int pin = 0; pin < 2; ++pin) {
    kernel::simd::ScopedForceScalar scalar(pin == 1);
    ModelSetup setup(w);
    obs::RunScope scope("bench_trajectory.kernel_simd");
    const core::RecursiveResult r = core::SelectRecursive(*setup.engine,
                                                          options);
    const obs::RunReport report = scope.Finish();
    sig[pin].steps = r.trace.size();
    sig[pin].whatif_calls = r.whatif_calls;
    sig[pin].objective =
        r.trace.empty() ? 0.0 : r.trace.back().objective_after;
    if (pin == 0) {
      const auto counter = [&](const char* name) -> uint64_t {
        const auto it = report.metrics.counters.find(name);
        return it == report.metrics.counters.end() ? 0 : it->second;
      };
      point.fast_path_hits = counter("idxsel.kernel.fast_path_hits");
      point.fallback_lookups = counter("idxsel.kernel.fallback_lookups");
      point.filtered_queries = counter("idxsel.kernel.filtered_queries");
    }
  }
  point.dispatch_identical =
      (sig[0].steps == sig[1].steps &&
       sig[0].whatif_calls == sig[1].whatif_calls &&
       ExactlyEqual(sig[0].objective, sig[1].objective))
          ? 1
          : 0;
  return point;
}

// ------------------------------------------------------ sharded ladder

/// One 100x-scale rung: T tables through the sharded advisor path
/// (idxsel::shard, doc/sharding.md), optionally next to the classic
/// unsharded path on the same workload for the wall-clock comparison.
struct ShardScale {
  size_t tables;
  size_t attributes_per_table;
  size_t queries_per_table;
  bool unsharded_leg;  ///< false once the unsharded path stops being CI-feasible
};

struct ShardPoint {
  size_t tables = 0;
  size_t templates = 0;
  // Deterministic work metrics (gated exactly by check-trajectory).
  uint64_t shards = 0;              ///< shards the arbiter drove
  uint64_t arbiter_rounds = 0;      ///< global commit rounds
  uint64_t steps = 0;               ///< committed construction steps
  uint64_t whatif_calls = 0;        ///< advisor-level calls, sharded leg
  uint64_t queries_full = 0;        ///< templates before compression
  uint64_t queries_compressed = 0;  ///< templates the shards actually priced
  // Timing-dependent (reported, not gated).
  double compression_ratio = 1.0;  ///< compressed / full (derived)
  double sharded_seconds = 0.0;
  double unsharded_seconds = 0.0;  ///< 0 when the leg was skipped
  double speedup = 0.0;            ///< unsharded / sharded (0 when skipped)
};

/// Runs one rung end-to-end through advisor::Recommend — the same entry
/// point production callers use — with `shards` pinned so the rung does
/// not depend on the auto-shard threshold. Shard-count-dependent work
/// numbers are read back from the idxsel.shard.* telemetry counters via
/// an obs::RunScope, exactly as production telemetry would see them.
/// threads=0 lets both legs use every core (exec::ResolveThreads), so the
/// wall-clock comparison is parallel-vs-parallel, not a thread handicap.
ShardPoint RunShard(const ShardScale& scale, double budget_w) {
  ShardPoint point;
  workload::ScalableWorkloadParams params;
  params.num_tables = static_cast<uint32_t>(scale.tables);
  params.attributes_per_table =
      static_cast<uint32_t>(scale.attributes_per_table);
  params.queries_per_table = static_cast<uint32_t>(scale.queries_per_table);
  // Linear row growth reaches 5e10 rows at T=50k; cap per-table size so
  // the cost model stays in its intended regime while T keeps scaling.
  params.rows_per_table_cap = 10'000'000;
  const workload::Workload w = workload::GenerateScalableWorkload(params);
  point.tables = w.num_tables();
  point.templates = w.num_queries();

  advisor::AdvisorOptions options;
  options.strategy = advisor::StrategyKind::kRecursive;
  options.threads = 0;  // auto
  options.recursive.max_steps = 200;
  {
    const costmodel::CostModel model(&w);
    options.budget_bytes = model.Budget(budget_w);
  }

  {  // Sharded leg: pinned shard count, dedup compression.
    options.shards = 64;
    options.shard_compression.mode = workload::CompressionMode::kDedup;
    ModelSetup setup(w);
    obs::RunScope scope("bench_trajectory.shard");
    const double start = NowSeconds();
    const auto rec = advisor::Recommend(*setup.engine, options);
    point.sharded_seconds = NowSeconds() - start;
    const obs::RunReport report = scope.Finish();
    if (rec.ok()) {
      point.steps = rec->trace.size();
      point.whatif_calls = rec->whatif_calls;
    }
    const auto counter = [&](const char* name) -> uint64_t {
      const auto it = report.metrics.counters.find(name);
      return it == report.metrics.counters.end() ? 0 : it->second;
    };
    point.shards = counter("idxsel.shard.shards");
    point.arbiter_rounds = counter("idxsel.shard.arbiter_rounds");
    point.queries_full = w.num_queries();
    // The telemetry counter tallies queries *saved* by compression;
    // report the template count the shards actually priced.
    point.queries_compressed =
        point.queries_full - counter("idxsel.shard.queries_compressed");
    if (point.queries_full > 0) {
      point.compression_ratio =
          static_cast<double>(point.queries_compressed) /
          static_cast<double>(point.queries_full);
    }
  }

  if (scale.unsharded_leg) {  // Classic path, same workload and budget.
    options.shards = 0;
    options.shard_auto_min_tables = std::numeric_limits<size_t>::max();
    ModelSetup setup(w);
    const double start = NowSeconds();
    const auto rec = advisor::Recommend(*setup.engine, options);
    point.unsharded_seconds = NowSeconds() - start;
    (void)rec;
    if (point.sharded_seconds > 0.0) {
      point.speedup = point.unsharded_seconds / point.sharded_seconds;
    }
  }
  return point;
}

std::string JsonDocument(const std::vector<TrajectoryPoint>& points,
                         const std::vector<ShardPoint>& shard_points,
                         double budget_w, int reps, uint64_t peak_rss_kb) {
  char buf[768];
  std::string out = "{\n" + SidecarHeaderJson("idxsel.bench_trajectory.v1");
  std::snprintf(buf, sizeof buf, "  \"budget_w\": %.2f,\n  \"reps\": %d,\n",
                budget_w, reps);
  out += buf;
  out += "  \"points\": [";
  bool first = true;
  for (const TrajectoryPoint& p : points) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(
        buf, sizeof buf,
        "    {\"n\": %zu, \"q\": %zu,\n"
        "     \"h6\": {\"steps\": %llu, \"whatif_calls\": %llu, "
        "\"seconds\": %.6f, \"steps_per_sec\": %.2f, "
        "\"allocations_per_step\": %.1f},\n"
        "     \"portfolio\": {\"winner\": \"%s\", \"whatif_calls\": %llu, "
        "\"seconds\": %.6f},\n"
        "     \"serve\": {\"cold_whatif_calls\": %llu, "
        "\"incremental_whatif_calls\": %llu, \"epoch\": %llu, "
        "\"seconds\": %.6f},\n"
        "     \"kernel_simd\": {\"fast_path_hits\": %llu, "
        "\"fallback_lookups\": %llu, \"filtered_queries\": %llu, "
        "\"dispatch_identical\": %llu},\n"
        "     \"peak_rss_kb\": %llu}",
        p.n, p.q, static_cast<unsigned long long>(p.h6.steps),
        static_cast<unsigned long long>(p.h6.whatif_calls), p.h6.seconds,
        p.h6.steps_per_sec, p.h6.allocations_per_step,
        p.portfolio.winner.c_str(),
        static_cast<unsigned long long>(p.portfolio.whatif_calls),
        p.portfolio.seconds,
        static_cast<unsigned long long>(p.serve.cold_whatif_calls),
        static_cast<unsigned long long>(p.serve.incremental_whatif_calls),
        static_cast<unsigned long long>(p.serve.epoch), p.serve.seconds,
        static_cast<unsigned long long>(p.kernel_simd.fast_path_hits),
        static_cast<unsigned long long>(p.kernel_simd.fallback_lookups),
        static_cast<unsigned long long>(p.kernel_simd.filtered_queries),
        static_cast<unsigned long long>(p.kernel_simd.dispatch_identical),
        static_cast<unsigned long long>(p.peak_rss_kb));
    out += buf;
  }
  out += "\n  ],\n";
  out += "  \"shard_points\": [";
  first = true;
  for (const ShardPoint& p : shard_points) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(
        buf, sizeof buf,
        "    {\"tables\": %zu, \"templates\": %zu,\n"
        "     \"shard\": {\"shards\": %llu, \"arbiter_rounds\": %llu, "
        "\"steps\": %llu, \"whatif_calls\": %llu, "
        "\"queries_full\": %llu, \"queries_compressed\": %llu, "
        "\"compression_ratio\": %.6f,\n"
        "      \"sharded_seconds\": %.6f, \"unsharded_seconds\": %.6f, "
        "\"speedup\": %.3f}}",
        p.tables, p.templates, static_cast<unsigned long long>(p.shards),
        static_cast<unsigned long long>(p.arbiter_rounds),
        static_cast<unsigned long long>(p.steps),
        static_cast<unsigned long long>(p.whatif_calls),
        static_cast<unsigned long long>(p.queries_full),
        static_cast<unsigned long long>(p.queries_compressed),
        p.compression_ratio, p.sharded_seconds, p.unsharded_seconds,
        p.speedup);
    out += buf;
  }
  out += "\n  ],\n";
  std::snprintf(buf, sizeof buf, "  \"peak_rss_kb\": %llu\n}\n",
                static_cast<unsigned long long>(peak_rss_kb));
  out += buf;
  return out;
}

void WriteJson(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_trajectory: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("results written to %s\n", path.c_str());
}

void Run() {
  const int reps = FullMode() ? 7 : 3;
  const double budget_w = 0.5;
  const std::vector<ScalePoint> ladder = FullMode()
      ? std::vector<ScalePoint>{{25, 25}, {50, 50}, {75, 75}, {100, 100}}
      : std::vector<ScalePoint>{{20, 20}, {35, 35}, {50, 50}};

  std::printf(
      "Perf trajectory: H6 + portfolio over %zu (N, Q) scale points, "
      "%d reps each (first cold, excluded).\n\n",
      ladder.size(), reps);

  obs::ResourceSampler sampler;
  std::vector<TrajectoryPoint> points;
  TablePrinter table({"N", "Q", "h6 steps", "what-if calls", "steps/sec",
                      "allocs/step", "race winner", "serve incr/cold",
                      "peak RSS (MB)"});
  for (const ScalePoint& scale : ladder) {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = scale.attributes_per_table;
    params.queries_per_table = scale.queries_per_table;
    workload::Workload w = workload::GenerateScalableWorkload(params);

    const costmodel::CostModel model(&w);
    const double budget = model.Budget(budget_w);

    TrajectoryPoint point;
    point.n = w.num_attributes();
    point.q = w.num_queries();
    {
      ModelSetup setup(w);
      point.h6 = RunH6(*setup.engine, budget, reps);
    }
    point.portfolio = RunPortfolio(w, budget);
    point.serve = RunServe(w, budget);
    point.kernel_simd = RunKernelSimd(w, budget);
    point.peak_rss_kb = static_cast<uint64_t>(sampler.Delta().peak_rss_kb);
    points.push_back(point);

    table.AddRow(
        {std::to_string(point.n), std::to_string(point.q),
         FormatCount(static_cast<int64_t>(point.h6.steps)),
         FormatCount(static_cast<int64_t>(point.h6.whatif_calls)),
         FormatDouble(point.h6.steps_per_sec, 1),
         FormatDouble(point.h6.allocations_per_step, 1),
         point.portfolio.winner,
         FormatCount(
             static_cast<int64_t>(point.serve.incremental_whatif_calls)) +
             "/" +
             FormatCount(static_cast<int64_t>(point.serve.cold_whatif_calls)),
         FormatDouble(static_cast<double>(point.peak_rss_kb) / 1024.0, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // 100x-scale sharded ladder (idxsel::shard). The top rung — 50k tables,
  // 200k templates, full mode only — is the standing proof that the
  // sharded advisor path finishes a 100x-scale workload end-to-end. The
  // unsharded leg rides along while it stays CI-feasible (drop a rung's
  // flag once it is not). Under IDXSEL_BENCH_ASSERT=1 the sharded path
  // must beat the unsharded one wall-clock on every rung that has both
  // legs (T >= 1k).
  std::vector<ShardScale> shard_ladder = {{1000, 8, 5, true},
                                          {10000, 8, 4, true}};
  if (FullMode()) shard_ladder.push_back({50000, 6, 4, true});

  std::printf("Sharded ladder: %zu rungs through the sharded advisor path "
              "(64 shards, dedup compression, auto threads).\n\n",
              shard_ladder.size());
  std::vector<ShardPoint> shard_points;
  TablePrinter shard_table({"tables", "templates", "shards", "rounds",
                            "steps", "what-if calls", "compress",
                            "sharded s", "unsharded s", "speedup"});
  bool assert_failed = false;
  for (const ShardScale& scale : shard_ladder) {
    const ShardPoint point = RunShard(scale, budget_w);
    shard_points.push_back(point);
    shard_table.AddRow(
        {FormatCount(static_cast<int64_t>(point.tables)),
         FormatCount(static_cast<int64_t>(point.templates)),
         std::to_string(point.shards), std::to_string(point.arbiter_rounds),
         std::to_string(point.steps),
         FormatCount(static_cast<int64_t>(point.whatif_calls)),
         FormatDouble(point.compression_ratio, 3),
         FormatDouble(point.sharded_seconds, 3),
         scale.unsharded_leg ? FormatDouble(point.unsharded_seconds, 3) : "-",
         scale.unsharded_leg ? FormatDouble(point.speedup, 2) + "x" : "-"});
    if (scale.unsharded_leg &&
        point.sharded_seconds >= point.unsharded_seconds) {
      assert_failed = true;
      std::fprintf(stderr,
                   "ASSERT shard: sharded %.3fs did not beat unsharded "
                   "%.3fs at T=%zu\n",
                   point.sharded_seconds, point.unsharded_seconds,
                   point.tables);
    }
  }
  std::printf("%s\n", shard_table.ToString().c_str());

  const uint64_t peak_rss_kb =
      static_cast<uint64_t>(sampler.Delta().peak_rss_kb);
  const std::string json =
      JsonDocument(points, shard_points, budget_w, reps, peak_rss_kb);
  WriteJson("bench_trajectory.json", json);
  WriteJson("BENCH_trajectory.json", json);

  if (assert_failed && std::getenv("IDXSEL_BENCH_ASSERT") != nullptr &&
      std::getenv("IDXSEL_BENCH_ASSERT")[0] == '1') {
    std::fprintf(stderr, "bench_trajectory: shard assertions failed\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace idxsel::bench

int main() {
  idxsel::bench::ObsSession obs("bench_trajectory");
  idxsel::bench::Run();
  return 0;
}
