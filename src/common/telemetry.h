// Leaf-layer telemetry slots — the dependency-free half of observability.
//
// The layering DAG (DESIGN.md §2, enforced by tools/idxsel_lint) places
// `exec` and `kernel` beside `obs`, not above it: neither may include obs
// headers. Yet their counters (parallel-loop fan-outs, arena interns)
// belong in run reports. This header squares that circle with a fixed
// table of plain relaxed atomic counters that any layer — including
// `common`'s own dependents at the very bottom of the DAG — may bump, and
// that `obs` (which *does* depend on common) publishes into every
// Registry snapshot under the metric names below. Increments are never
// lost to initialization order: the table is a function-local static of
// trivially-constructible atomics.
//
// Add a slot by extending the enum and the name table in lockstep;
// doc/observability.md lists the published names.
//
// The second half of this header is the *selection-journal bridge*: a
// structured decision record (JournalEvent) plus a process-wide sink
// pointer. Strategy layers build an event on the stack out of borrowed
// const char* / plain doubles — no allocation, no obs types — and hand it
// to EmitJournal(); obs installs a sink that copies the event into owned
// obs::JournalRecord storage. When no sink is installed (the journal is
// disabled at run time) JournalActive() is false and emitting
// layers skip even the label formatting. Same layering story as the
// slots: kernel/exec/selection may emit, only obs may consume.

#ifndef IDXSEL_COMMON_TELEMETRY_H_
#define IDXSEL_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace idxsel::telemetry {

/// One process-wide counter owned by a layer that must not see obs.
enum class Slot : size_t {
  kExecParallelFors = 0,  ///< counter "idxsel.exec.parallel_fors"
  kKernelArenaInterns,    ///< counter "idxsel.kernel.arena_interns"
  // idxsel::serve lifecycle counters (doc/serve.md). The serve layer sits
  // above obs in the DAG and could use obs directly, but routing through
  // the bridge keeps one publishing path for every layer's counters.
  kServeDeltasAccepted,   ///< counter "idxsel.serve.deltas_accepted"
  kServeDeltasCoalesced,  ///< counter "idxsel.serve.deltas_coalesced"
  kServeDeltasShed,       ///< counter "idxsel.serve.deltas_shed"
  kServeEpochs,           ///< counter "idxsel.serve.epochs"
  kServeRetries,          ///< counter "idxsel.serve.retries"
  kServeBreakerTrips,     ///< counter "idxsel.serve.breaker_trips"
  kServeBreakerCloses,    ///< counter "idxsel.serve.breaker_closes"
  kServeWatchdogCancels,  ///< counter "idxsel.serve.watchdog_cancels"
  kServeCheckpoints,      ///< counter "idxsel.serve.checkpoints"
  kServeRecoveries,       ///< counter "idxsel.serve.recoveries"
  kServeColdStarts,       ///< counter "idxsel.serve.cold_starts"
  kServeCacheFlushes,     ///< counter "idxsel.serve.cache_flushes"
  // idxsel::shard arbiter counters (doc/sharding.md). Shard-count-dependent
  // numbers (how many shards, how often the arbiter re-expanded a shard)
  // live HERE and in bench sidecars only — never in the selection journal,
  // which must stay byte-identical across shard and thread counts.
  kShardSelections,       ///< counter "idxsel.shard.selections"
  kShardShards,           ///< counter "idxsel.shard.shards"
  kShardArbiterRounds,    ///< counter "idxsel.shard.arbiter_rounds"
  kShardReruns,           ///< counter "idxsel.shard.reruns"
  kShardQueriesCompressed,///< counter "idxsel.shard.queries_compressed"
  kShardDirtyRebuilds,    ///< counter "idxsel.shard.dirty_rebuilds"
  kSlotCount,
};

inline constexpr size_t kSlotCount = static_cast<size_t>(Slot::kSlotCount);

/// Registry metric name a slot publishes under.
constexpr const char* SlotName(Slot slot) {
  switch (slot) {
    case Slot::kExecParallelFors:
      return "idxsel.exec.parallel_fors";
    case Slot::kKernelArenaInterns:
      return "idxsel.kernel.arena_interns";
    case Slot::kServeDeltasAccepted:
      return "idxsel.serve.deltas_accepted";
    case Slot::kServeDeltasCoalesced:
      return "idxsel.serve.deltas_coalesced";
    case Slot::kServeDeltasShed:
      return "idxsel.serve.deltas_shed";
    case Slot::kServeEpochs:
      return "idxsel.serve.epochs";
    case Slot::kServeRetries:
      return "idxsel.serve.retries";
    case Slot::kServeBreakerTrips:
      return "idxsel.serve.breaker_trips";
    case Slot::kServeBreakerCloses:
      return "idxsel.serve.breaker_closes";
    case Slot::kServeWatchdogCancels:
      return "idxsel.serve.watchdog_cancels";
    case Slot::kServeCheckpoints:
      return "idxsel.serve.checkpoints";
    case Slot::kServeRecoveries:
      return "idxsel.serve.recoveries";
    case Slot::kServeColdStarts:
      return "idxsel.serve.cold_starts";
    case Slot::kServeCacheFlushes:
      return "idxsel.serve.cache_flushes";
    case Slot::kShardSelections:
      return "idxsel.shard.selections";
    case Slot::kShardShards:
      return "idxsel.shard.shards";
    case Slot::kShardArbiterRounds:
      return "idxsel.shard.arbiter_rounds";
    case Slot::kShardReruns:
      return "idxsel.shard.reruns";
    case Slot::kShardQueriesCompressed:
      return "idxsel.shard.queries_compressed";
    case Slot::kShardDirtyRebuilds:
      return "idxsel.shard.dirty_rebuilds";
    case Slot::kSlotCount:
      break;
  }
  return "idxsel.telemetry.invalid";
}

namespace internal {

inline std::atomic<int64_t>* Table() {
  static std::atomic<int64_t> table[kSlotCount] = {};
  return table;
}

}  // namespace internal

/// Counter bump; relaxed — slots are statistics, never synchronization.
inline void Add(Slot slot, int64_t delta = 1) {
  internal::Table()[static_cast<size_t>(slot)].fetch_add(
      delta, std::memory_order_relaxed);
}

inline int64_t Value(Slot slot) {
  return internal::Table()[static_cast<size_t>(slot)].load(
      std::memory_order_relaxed);
}

/// Rewinds every slot; obs::Registry::ResetCountersAndHistograms calls
/// this so bridged counters reset in lockstep with registry ones.
inline void ResetAll() {
  for (size_t s = 0; s < kSlotCount; ++s) {
    internal::Table()[s].store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Selection-journal bridge.
// ---------------------------------------------------------------------------

/// One candidate move weighed during a decision. All pointers borrow from
/// the emitting frame; sinks must copy before returning.
struct JournalCandidate {
  const char* index = nullptr;   ///< canonical index label, e.g. "(3,7)"
  const char* reject = nullptr;  ///< nullptr for the winner; else a stable
                                 ///< reason: "budget-exceeded", "dominated",
                                 ///< "sanitized-whatif", "timeout",
                                 ///< "no-benefit"
  double benefit = 0.0;          ///< workload-cost reduction of the move
  double memory_delta = 0.0;     ///< bytes the move adds (may be +inf when
                                 ///< the what-if size was sanitized)
  double ratio = 0.0;            ///< benefit / memory_delta, the H6 key
};

/// One committed decision (or terminal event) of one strategy. Borrowed
/// storage, same rule as JournalCandidate.
struct JournalEvent {
  const char* strategy = nullptr;  ///< StrategyKey-style label: "h6", ...
  const char* action = nullptr;    ///< "commit", "prune", "swap", "pick",
                                   ///< "solve", "stop", "lane", "winner"
  uint64_t round = 0;              ///< 1-based decision ordinal in the run
  const char* winner = nullptr;    ///< label of the chosen index (nullptr
                                   ///< for terminal/no-pick events)
  double winner_ratio = 0.0;       ///< winner's benefit/memory ratio
  double margin = 0.0;             ///< winner_ratio minus best runner-up
                                   ///< ratio (0 when unopposed)
  double objective_before = 0.0;   ///< workload cost entering the round
  double objective_after = 0.0;    ///< workload cost after the commit
  double memory_after = 0.0;       ///< bytes used after the commit
  uint64_t sanitized_whatif = 0;   ///< what-if answers sanitized this round
  const JournalCandidate* candidates = nullptr;  ///< losers + winner
  size_t num_candidates = 0;
  const char* note = nullptr;      ///< optional free text (nullptr ok)
};

/// Sink contract: copy the event synchronously; may be called from any
/// thread (strategies emit only at serial points, but portfolio lanes run
/// concurrently with each other).
using JournalSink = void (*)(const JournalEvent& event);

namespace internal {

inline std::atomic<JournalSink>& JournalSinkSlot() {
  static std::atomic<JournalSink> sink{nullptr};
  return sink;
}

/// Per-thread suppression depth (see ScopedJournalSuppress).
inline int& JournalSuppressDepth() {
  thread_local int depth = 0;
  return depth;
}

}  // namespace internal

/// Installs (or, with nullptr, removes) the process-wide journal sink.
inline void SetJournalSink(JournalSink sink) {
  internal::JournalSinkSlot().store(sink, std::memory_order_release);
}

/// Cheap emit-side gate: true iff a sink is installed and the calling
/// thread is not inside a ScopedJournalSuppress. Emitters should check
/// this before doing any label formatting.
inline bool JournalActive() {
  return internal::JournalSuppressDepth() == 0 &&
         internal::JournalSinkSlot().load(std::memory_order_acquire) !=
             nullptr;
}

/// Hands one event to the installed sink (no-op when none, or while the
/// calling thread is suppressed).
inline void EmitJournal(const JournalEvent& event) {
  if (internal::JournalSuppressDepth() != 0) return;
  if (JournalSink sink =
          internal::JournalSinkSlot().load(std::memory_order_acquire)) {
    sink(event);
  }
}

/// Mutes JournalActive()/EmitJournal() on the *constructing thread* for
/// the scope's lifetime (re-entrant; depth-counted). The sharded selector
/// opens its per-shard H6 sessions inside one: the arbiter steps the
/// shards in its own interleaved order, so their raw records would not
/// read as one H6 run — the arbiter instead emits its own canonical,
/// shard-count-invariant records (doc/sharding.md). Suppression is
/// thread-local so concurrent journaled strategies on other threads
/// (portfolio lanes) are unaffected.
class ScopedJournalSuppress {
 public:
  ScopedJournalSuppress() { ++internal::JournalSuppressDepth(); }
  ~ScopedJournalSuppress() { --internal::JournalSuppressDepth(); }
  ScopedJournalSuppress(const ScopedJournalSuppress&) = delete;
  ScopedJournalSuppress& operator=(const ScopedJournalSuppress&) = delete;
};

}  // namespace idxsel::telemetry

#endif  // IDXSEL_COMMON_TELEMETRY_H_
