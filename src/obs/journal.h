// Selection journal — decision provenance for every strategy run.
//
// The consuming half of the telemetry journal bridge
// (common/telemetry.h): obs installs a sink that copies each emitted
// telemetry::JournalEvent into an owned JournalRecord inside the bounded
// process-wide Journal buffer. JournalScope brackets one advisor run and
// returns the records appended while it was open, re-ordered into the
// caller-supplied lane order so that concurrently-racing portfolio lanes
// always serialize identically — the journal is held to the kernel's bar:
// byte-identical at any thread count, kernel on or off. Records carry no
// timestamps and no arrival-order sequence numbers for exactly that
// reason; `seq` is assigned after ordering.
//
// Runtime gate: the journal starts disabled (records are allocation-heavy
// and would distort bench numbers) and is enabled with the
// IDXSEL_JOURNAL=1 environment variable or SetJournalEnabled(true).
// Sidecar format: one record per line, schema idxsel.journal.v1
// (doc/observability.md §journal).

#ifndef IDXSEL_OBS_JOURNAL_H_
#define IDXSEL_OBS_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"

namespace idxsel::obs {

/// Owned copy of telemetry::JournalCandidate.
struct JournalCandidate {
  std::string index;       ///< canonical index label, e.g. "(3,7)"
  std::string reject;      ///< empty for the winner; else the reason
  double benefit = 0.0;
  double memory_delta = 0.0;
  double ratio = 0.0;
};

/// Owned copy of one telemetry::JournalEvent.
struct JournalRecord {
  uint64_t seq = 0;  ///< 0-based position after lane ordering (assigned by
                     ///< JournalScope::Finish / Journal::Snapshot)
  std::string strategy;
  std::string action;
  uint64_t round = 0;
  std::string winner;  ///< empty when the event picked nothing
  double winner_ratio = 0.0;
  double margin = 0.0;
  double objective_before = 0.0;
  double objective_after = 0.0;
  double memory_after = 0.0;
  uint64_t sanitized_whatif = 0;
  std::vector<JournalCandidate> candidates;
  std::string note;

  /// One-line JSON object (no trailing newline). Doubles render with
  /// %.17g; non-finite values render as the strings "inf"/"-inf"/"nan".
  std::string ToJsonl() const;
};

/// Full sidecar body: one ToJsonl() line per record, each '\n'-terminated.
std::string JournalToJsonl(const std::vector<JournalRecord>& records);

/// True iff emitted events are being recorded (IDXSEL_JOURNAL=1 at start,
/// or SetJournalEnabled(true)).
bool JournalEnabled();

/// Installs (on) or removes (off) the telemetry journal sink. Safe to
/// call repeatedly; idempotent.
void SetJournalEnabled(bool on);

/// Process-wide bounded record buffer fed by the telemetry sink.
class Journal {
 public:
  /// Records are dropped (and counted) beyond this many per process
  /// between Clear() calls; a run that hits it is pathological.
  static constexpr size_t kMaxRecords = 1u << 20;

  static Journal& Default();

  /// Copies one bridge event into owned storage. Thread-safe.
  void Append(const telemetry::JournalEvent& event);

  size_t size() const;
  uint64_t dropped() const;

  /// Copies out records [mark, size()), `seq` assigned 0..n-1 in buffer
  /// order. Use JournalScope for lane-order-stable extraction.
  std::vector<JournalRecord> SnapshotSince(size_t mark) const;

  /// Empties the buffer and resets the drop counter.
  void Clear();

 private:
  mutable common::Mutex mu_;
  std::vector<JournalRecord> records_ IDXSEL_GUARDED_BY(mu_);
  uint64_t dropped_ IDXSEL_GUARDED_BY(mu_) = 0;
};

/// Brackets one advisor/strategy run: construction marks the default
/// journal (and installs the sink if JournalEnabled()); Finish() returns
/// the records appended since, stable-sorted by the position of each
/// record's strategy in `lane_order` (records whose strategy is not
/// listed sort after all listed lanes, preserving their relative order —
/// advisor-level records land there by construction). Within one lane,
/// emission order is preserved: strategies emit serially from their own
/// lane, so per-lane order is deterministic even while lanes race.
class JournalScope {
 public:
  explicit JournalScope(std::vector<std::string> lane_order = {});

  /// Replaces the lane order (the advisor resolves its race list after
  /// opening the scope). Call before Finish().
  void SetLaneOrder(std::vector<std::string> lane_order);

  /// Ends the scope and returns the lane-ordered records with `seq`
  /// assigned 0..n-1. Call at most once.
  std::vector<JournalRecord> Finish();

 private:
  std::vector<std::string> lane_order_;
  size_t mark_ = 0;
};

}  // namespace idxsel::obs

#endif  // IDXSEL_OBS_JOURNAL_H_
