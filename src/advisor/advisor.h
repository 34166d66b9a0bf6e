// One-stop index-advisor facade.
//
// Wraps workload -> (candidates) -> strategy -> recommendation behind a
// single call, for users who want "give me indexes for this budget" rather
// than the individual research components. Every strategy of the paper is
// selectable; H6 (Algorithm 1) is the default and needs no candidate set.

#ifndef IDXSEL_ADVISOR_ADVISOR_H_
#define IDXSEL_ADVISOR_ADVISOR_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/recursive_selector.h"
#include "costmodel/index.h"
#include "costmodel/what_if.h"
#include "mip/branch_and_bound.h"
#include "obs/journal.h"
#include "obs/report.h"
#include "shard/sharded_selector.h"
#include "workload/compression.h"

namespace idxsel::advisor {

using costmodel::Index;
using costmodel::IndexConfig;
using costmodel::WhatIfEngine;

/// Selection strategy to run (Definition 1 + CoPhy).
enum class StrategyKind {
  kRecursive,   ///< H6, Algorithm 1 (default; no candidate set needed).
  kH1,          ///< frequency rule
  kH2,          ///< selectivity rule
  kH3,          ///< selectivity/frequency rule
  kH4,          ///< greedy by benefit
  kH4Skyline,   ///< greedy by benefit on skyline-filtered candidates
  kH5,          ///< greedy by benefit per byte
  kCophy,       ///< solver-based optimum over the candidate set
};

/// Human-readable strategy name ("H6 (Algorithm 1)", "CoPhy", ...).
const char* StrategyName(StrategyKind kind);

/// Stable lowercase key used in metric names ("h6", "h4_skyline", ...).
const char* StrategyKey(StrategyKind kind);

/// What Recommend() does when the configured strategy does not finish
/// cleanly (deadline expiry, solver failure) — see doc/robustness.md.
enum class FallbackPolicy {
  /// Return the primary strategy's best-so-far incumbent as-is.
  kNone,
  /// Additionally run the cheapest heuristic that can always complete —
  /// H1 over single-attribute candidates, whose ranking needs no what-if
  /// calls — and return whichever feasible selection has the lower
  /// workload cost. The primary's incumbent still wins when it is better.
  kCheapestHeuristic,
};

/// Advisor configuration.
struct AdvisorOptions {
  /// Budget as a share w of total single-attribute index memory (eq. 10);
  /// ignored when budget_bytes > 0.
  double budget_fraction = 0.2;
  double budget_bytes = 0.0;  ///< Explicit budget in bytes (0 = use w).
  StrategyKind strategy = StrategyKind::kRecursive;
  /// Candidate-set cap for candidate-based strategies (H1-H5, CoPhy);
  /// 0 = exhaustive enumeration (IC_max).
  size_t candidate_limit = 0;
  uint32_t candidate_max_width = 4;
  mip::SolveOptions solver;             ///< CoPhy solver knobs.
  core::RecursiveOptions recursive;     ///< H6 extensions (budget is set
                                        ///< by the advisor).

  /// Worker threads for every parallel stage under this Recommend() call:
  /// H6 round evaluation, MIP subtree exploration, and portfolio racing.
  /// 0 = auto (exec::DefaultThreads(): the IDXSEL_THREADS env override, or
  /// hardware_concurrency clamped to [1, 64]); 1 forces fully serial
  /// execution; n = exactly n lanes. Overrides `recursive.threads` and
  /// `solver.threads`. Auto is the default because parallel H6 and MIP
  /// runs return the same recommendations as serial ones — see
  /// doc/parallelism.md and EXPERIMENTS.md.
  size_t threads = 0;
  /// Portfolio racing: additional strategies run concurrently against
  /// `strategy` under the same budget and deadline, each on its own lane
  /// of the shared pool (serially, one after another, when only one
  /// thread is available — same winner either way). The recommendation is
  /// the feasible selection with the lowest workload cost; ties go to the
  /// primary, then to portfolio order, so the winner is deterministic and
  /// independent of which lane finishes first. A lane that hits the
  /// deadline contributes its anytime incumbent; a lane that fails
  /// outright contributes nothing. Empty = classic single-strategy mode.
  /// See doc/parallelism.md ("Portfolio racing").
  std::vector<StrategyKind> portfolio;

  /// idxsel::shard — per-table sharded selection with the global budget
  /// arbiter (doc/sharding.md). 0 = auto: shard only when the workload has
  /// at least `shard_auto_min_tables` query-bearing tables, using min(64,
  /// query-bearing tables) shards. n >= 1 forces the sharded path with n
  /// shards (clamped to the query-bearing table count). The sharded path
  /// runs only for plain single-lane H6 — strategy == kRecursive, no
  /// portfolio, and none of the Remark-1/2 extensions (prune_unused,
  /// pair_steps, swap_repair, multi_index_eval, n_best_singles,
  /// existing/reconfiguration) — where it returns bit-identical selections,
  /// traces, and journals to the unsharded run at any shard and thread
  /// count; otherwise `shards` is ignored and the classic path runs.
  size_t shards = 0;
  size_t shard_auto_min_tables = 256;
  /// Workload compression v2 applied per shard before selection
  /// (workload/compression.h). kNone (default) preserves bit-identity with
  /// the unsharded run; kDedup/kCluster trade exactness for speed — quality
  /// (cost_before/cost_after) is always evaluated on the full workload.
  workload::CompressionOptions shard_compression{
      workload::CompressionMode::kNone};
  /// Reusable sharded session (serve's incremental hook): when set and the
  /// sharded path is eligible, Recommend() calls shard_session->Select()
  /// instead of building shards from scratch, so only shards marked dirty
  /// since the last call are rebuilt. Not owned; must outlive the call and
  /// must have been built over the same engine/workload.
  shard::ShardedSelector* shard_session = nullptr;

  /// Wall-clock budget for the whole Recommend() call (candidate
  /// generation + strategy + fallback bookkeeping); infinity = unbounded.
  /// When bounded, the derived rt::Deadline is threaded into every stage
  /// (overriding any deadline set on `recursive`/`solver`), making each
  /// strategy anytime: on expiry Recommend() still returns ok() with the
  /// best-so-far incumbent and Recommendation::status == kTimeout.
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  /// Optional cancellation observed by every deadline poll (not owned;
  /// must outlive the call). Works with or without a time limit.
  const rt::CancellationToken* cancellation = nullptr;
  /// Degradation behaviour when the strategy misses its deadline/fails.
  FallbackPolicy fallback = FallbackPolicy::kCheapestHeuristic;
};

/// What the advisor recommends, with enough context to act on it.
struct Recommendation {
  StrategyKind strategy = StrategyKind::kRecursive;
  IndexConfig selection;
  double budget = 0.0;
  double memory = 0.0;
  double cost_before = 0.0;  ///< F(empty).
  double cost_after = 0.0;   ///< F(selection), incl. maintenance.
  double runtime_seconds = 0.0;
  uint64_t whatif_calls = 0;
  /// How the *primary* strategy terminated: OK, kTimeout (anytime
  /// incumbent returned — any strategy, not just CoPhy), or the solver's
  /// error when the fallback absorbed it. Recommend() itself stays ok()
  /// in all these cases; its own error Results are reserved for unusable
  /// inputs.
  Status status;
  /// Any strategy hit its deadline/limit and returned an incumbent (the
  /// paper's "DNF" generalized beyond CoPhy).
  bool dnf = false;
  /// The recommendation is best-effort rather than the configured
  /// strategy's clean answer: it timed out, fell back, or was computed
  /// against a backend that returned garbage (see WhatIfEngine::health).
  bool degraded = false;
  /// FallbackPolicy replaced the primary's incumbent with the fallback
  /// heuristic's selection (only when the latter was strictly cheaper).
  bool fell_back = false;
  /// Strategy whose selection this actually is: `strategy` normally, the
  /// fallback heuristic when `fell_back`, the race winner under
  /// AdvisorOptions::portfolio.
  StrategyKind executed_strategy = StrategyKind::kRecursive;
  /// H6 only: the committed construction steps.
  std::vector<core::ConstructionStep> trace;
  /// Observability digest of this run: metric deltas and spans recorded
  /// while Recommend() was executing (counters always; spans only while
  /// obs::Enabled()).
  obs::RunReport report;
  /// Selection journal of this run: one structured decision record per
  /// committed round of every strategy lane (schema idxsel.journal.v1),
  /// in deterministic lane order — byte-identical at any thread count and
  /// SIMD dispatch. Populated while the journal is enabled
  /// (obs::SetJournalEnabled / IDXSEL_JOURNAL=1); empty otherwise. Export
  /// with obs::JournalToJsonl as a *.journal.jsonl sidecar; query with
  /// Explain().
  std::vector<obs::JournalRecord> journal;

  /// "Why was/wasn't `index` selected?" — renders the journal evidence
  /// about one index: the committing/picking record, rejection reasons
  /// with benefit/memory ratios, prunes and swaps it appears in. Points at
  /// IDXSEL_JOURNAL when the journal was off during the run.
  std::string Explain(const costmodel::Index& index) const;
};

/// Shard count the kRecursive lane will use under `options` for this
/// workload; 0 = the classic unsharded path (ineligible configuration, or
/// auto-sharding declined). Exposed so long-lived callers (idxsel::serve)
/// can decide whether to maintain a reusable shard::ShardedSelector
/// session and size it consistently with Recommend()'s own gate.
size_t ResolveShardCount(const AdvisorOptions& options,
                         const workload::Workload& workload);

/// Runs the configured strategy against `engine`'s workload.
Result<Recommendation> Recommend(WhatIfEngine& engine,
                                 const AdvisorOptions& options);

/// Renders a human-readable report: summary block plus one line per
/// recommended index (attributes, memory, #queries it serves best).
/// `attribute_names` is optional ("TABLE.ATTR" labels; ids otherwise).
std::string RenderReport(WhatIfEngine& engine, const Recommendation& rec,
                         const std::vector<std::string>* attribute_names =
                             nullptr);

}  // namespace idxsel::advisor

#endif  // IDXSEL_ADVISOR_ADVISOR_H_
