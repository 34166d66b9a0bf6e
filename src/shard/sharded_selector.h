// Sharded Algorithm 1 with a global budget arbiter.
//
// Each shard drives one live H6 session (core::RecursiveSession) on its
// private view for the whole Select; the arbiter greedily merges the
// shards' next-move proposals on benefit-per-byte ratio — exactly the step
// criterion of the global run — and commits them against the one shared
// budget. A session proposes under a *generous* budget assumption; when
// the arbiter's marginal budget diverges from it (the proposal no longer
// fits what is left), the shard's budget is clamped to committed_s +
// remaining and its cached round re-folded: a smaller budget only rejects
// moves, so the session's committed prefix stays valid and the re-fold
// yields the true next move without evaluating anything.
//
// Exactness: on single-table-coupled workloads (every query touches one
// table — the model of Section II-A) the committed move sequence, the
// selection, the trace values, and the emitted journal records are
// bit-identical to unsharded H6 at any shard count, provided the shared
// extensions are off (see the advisor's eligibility gate) and compression
// is off. doc/sharding.md carries the proof sketch and the two
// epsilon-boundary caveats (cross-table exact ratio ties, budget
// knife-edge FP reassociation).
//
// Work: a shard evaluates its round c+1 once, after its step c commits,
// and only the units that commit touched (the H6 move memo). Each
// arbiter round therefore evaluates one shard's stale units and re-folds
// one shard's moves; the other shards' proposals stay cached. That is
// ~R*M/S against the global run's R*M (R rounds, M moves per round), why
// the sharded path wins wall-clock even single-threaded —
// bench_trajectory's shard ladder asserts it. Evaluating only after a
// commit, never ahead, is also why whatif_calls does not depend on the
// shard count: together the shard engines consult exactly the keys the
// unsharded run consults (doc/sharding.md §calls).
//
// Journal discipline: inner per-shard H6 journals are suppressed
// (telemetry::ScopedJournalSuppress) — the arbiter steps the shards in
// its own interleaved order, so raw records would not read as one H6
// run. The arbiter emits its own lane ("shard"): one commit record per
// round plus a terminal stop record, none of whose fields depend on the
// shard count. Shard-count-dependent numbers (shards used, budget clamps)
// go to idxsel.shard.* telemetry and bench sidecars only.

#ifndef IDXSEL_SHARD_SHARDED_SELECTOR_H_
#define IDXSEL_SHARD_SHARDED_SELECTOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/recursive_selector.h"
#include "costmodel/index.h"
#include "costmodel/what_if.h"
#include "shard/partition.h"
#include "workload/compression.h"

namespace idxsel::shard {

struct ShardedOptions {
  /// Shard count (clamped to [1, query-bearing tables]).
  size_t shards = 1;
  /// Global commit cap / minimal improvement ratio / index width cap —
  /// same semantics as core::RecursiveOptions.
  size_t max_steps = std::numeric_limits<size_t>::max();
  double min_ratio = 0.0;
  size_t max_index_width = std::numeric_limits<size_t>::max();
  /// Per-shard workload compression, applied before any what-if call.
  /// Strictly per-table, so results stay shard-count-independent; kNone
  /// (the default) keeps the sharded path bit-identical to unsharded H6.
  workload::CompressionOptions compression{workload::CompressionMode::kNone};
  /// Test hook: decorates shard `s`'s id-translating view backend (e.g.
  /// with rt::FaultInjectingBackend for the chaos tests). The returned
  /// backend is owned by the selector; return nullptr to use the view
  /// directly. Must be deterministic per shard.
  std::function<std::unique_ptr<costmodel::WhatIfBackend>(
      size_t s, const costmodel::WhatIfBackend& view)>
      wrap_backend;
};

/// Shard-count-*dependent* run statistics — telemetry/bench material,
/// never journal material.
struct ShardedStats {
  size_t shards_used = 0;
  uint64_t arbiter_rounds = 0;  ///< committed moves
  uint64_t shard_runs = 0;      ///< H6 sessions opened (one per shard)
  uint64_t reruns = 0;          ///< budget clamps (re-folded proposals)
  uint64_t queries_full = 0;        ///< shard-local templates pre-compression
  uint64_t queries_compressed = 0;  ///< templates actually selected over
  size_t degraded_shards = 0;   ///< shards whose engine sanitized garbage
};

struct ShardedResult {
  costmodel::IndexConfig selection;  ///< global ids
  /// Committed steps in global ids; objective_before/after thread the
  /// *full-workload* objective through the per-step benefit deltas.
  std::vector<core::ConstructionStep> trace;
  /// (memory, objective) after every commit — the H6 frontier curve.
  std::vector<std::pair<double, double>> frontier;
  double objective = 0.0;  ///< full-workload objective after all commits
  double memory = 0.0;     ///< bytes committed (<= budget)
  uint64_t whatif_calls = 0;  ///< backend calls across all shard engines
  ShardedStats stats;
  /// OK, or Timeout when the deadline cut arbitration short (the
  /// selection is then the best-so-far incumbent, still budget-feasible).
  Status status;
  /// Some shard's backend returned garbage (sanitized per-shard; the
  /// global plan stays budget-feasible — sanitized sizes are +inf and can
  /// never be committed).
  bool degraded = false;
};

/// Reusable sharded selector: partitions once, keeps per-shard engines
/// (and their warm caches) across Select() calls, and rebuilds only
/// shards marked dirty — the serve layer's incremental hook. H6 sessions
/// live for one Select().
class ShardedSelector {
 public:
  /// Borrows `engine` (for the live workload and the global backend);
  /// must outlive the selector.
  ShardedSelector(costmodel::WhatIfEngine& engine,
                  const ShardedOptions& options);
  ~ShardedSelector();

  ShardedSelector(const ShardedSelector&) = delete;
  ShardedSelector& operator=(const ShardedSelector&) = delete;

  size_t shards() const { return set_.shards.size(); }

  /// The queries of `table` changed in the live workload (frequency
  /// shift); the owning shard is rebuilt from it on the next Select().
  /// Structural changes need a new selector (new workload object).
  void MarkDirty(workload::TableId table);

  /// One full selection under `budget`. `cost_before` is F(empty) on the
  /// full workload — the advisor computes it anyway — used as the
  /// objective baseline of trace and journal records.
  ShardedResult Select(double budget, double cost_before,
                       const rt::Deadline& deadline = {});

 private:
  struct ShardState;

  /// Builds shard `s`'s view backend and engine over set_.shards[s].
  void AttachEngine(size_t s);
  /// Rebuilds shard `s`'s view from the live workload, then its engine.
  void RebuildShard(size_t s);

  costmodel::WhatIfEngine& engine_;
  ShardedOptions options_;
  ShardSet set_;
  std::vector<std::unique_ptr<ShardState>> states_;
};

/// One-shot convenience wrapper.
ShardedResult SelectSharded(costmodel::WhatIfEngine& engine,
                            const ShardedOptions& options, double budget,
                            double cost_before,
                            const rt::Deadline& deadline = {});

}  // namespace idxsel::shard

#endif  // IDXSEL_SHARD_SHARDED_SELECTOR_H_
