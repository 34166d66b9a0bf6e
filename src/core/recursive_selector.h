// Algorithm 1 — the recursive, constructive multi-attribute index-selection
// strategy (heuristic H6). This is the paper's primary contribution.
//
// Starting from the empty selection, each construction step evaluates two
// kinds of elementary moves:
//   (3a) create a new single-attribute index {i},
//   (3b) append attribute i to the end of an existing index k ("morphing":
//        k is *replaced* by k ++ i).
// The move with the best ratio of additional performance (cost reduction of
// F, plus reconfiguration-cost delta R when configured) per additional
// memory is committed; the loop stops when the budget would be exceeded by
// every improving move, a step limit is reached, or no move improves F.
//
// Because each step is evaluated *in the presence of the already selected
// indexes*, index interaction is accounted for in a targeted way
// (Section II-D), and the sequence of committed steps traces out an
// approximation of the performance/memory efficient frontier — one run
// yields the whole H6 curve of Figures 2-5.
//
// What-if frugality: the selector itself determines which queries a move
// can affect (leading-attribute applicability + coverable-prefix growth)
// and only consults the WhatIfEngine for those, exactly reproducing the
// paper's ~2 * Q * q-bar call volume. All other lookups are cache hits.
//
// Remark-1 extensions implemented:
//   (1) `n_best_singles`  — consider only the n best single-attribute
//        indexes (ranked in the first step) as new-single moves.
//   (2) `prune_unused`    — drop selected indexes that no query uses
//        anymore, reclaiming their memory.
//   (3) missed opportunities — the runner-up move of every step is
//        recorded in the trace for later inspection/reuse.
//   (4) `pair_steps`      — additionally consider appending attribute
//        *pairs* and creating two-attribute indexes in one step.

#ifndef IDXSEL_CORE_RECURSIVE_SELECTOR_H_
#define IDXSEL_CORE_RECURSIVE_SELECTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "costmodel/cost_model.h"
#include "costmodel/index.h"
#include "costmodel/reconfiguration.h"
#include "costmodel/what_if.h"

namespace idxsel::core {

using costmodel::Index;
using costmodel::IndexConfig;
using costmodel::ReconfigurationModel;
using costmodel::WhatIfEngine;

/// Kind of elementary construction move.
enum class StepKind {
  kNewSingle,  ///< Step (3a): add {i}.
  kAppend,     ///< Step (3b): replace k by k ++ i.
  kNewPair,    ///< Remark 1(4): add {i1, i2} directly.
  kAppendPair, ///< Remark 1(4): replace k by k ++ i1 ++ i2.
  kPrune,      ///< Remark 1(2): drop an unused index (no ratio).
  kSwap,       ///< Repair pass: evict low-value indexes for a big one.
};

/// One committed (or runner-up) construction step.
struct ConstructionStep {
  StepKind kind = StepKind::kNewSingle;
  Index before;  ///< Empty for kNew*; the replaced index for kAppend*.
  Index after;   ///< The created / extended index (empty for kPrune).
  double objective_before = 0.0;  ///< F + R before the step.
  double objective_after = 0.0;   ///< F + R after the step.
  double memory_delta = 0.0;      ///< P(new) - P(old), > 0 except kPrune.
  double ratio = 0.0;             ///< Benefit per additional byte.
};

/// Options of Algorithm 1.
struct RecursiveOptions {
  double budget = 0.0;  ///< A; committed selections never exceed it.
  size_t max_steps = std::numeric_limits<size_t>::max();
  /// Remark 1(1): only the n best single-attribute indexes (by first-step
  /// ratio) remain eligible as kNewSingle moves. Default: all.
  size_t n_best_singles = std::numeric_limits<size_t>::max();
  /// Remark 1(2): drop indexes no query uses after each step.
  bool prune_unused = false;
  /// Remark 1(4): also evaluate attribute-pair moves.
  bool pair_steps = false;
  /// Upper limit on index width (paper: unlimited).
  size_t max_index_width = std::numeric_limits<size_t>::max();
  /// Minimal improvement ratio to keep going (0 = any improvement).
  double min_ratio = 0.0;
  /// Remark 2: evaluate moves in the multiple-indexes-per-query setting via
  /// WhatIfEngine::CostWithConfig. Query costs then depend on the whole
  /// current selection, so affected queries are re-estimated against the
  /// hypothetical configuration ("what-if calls ... have to be refreshed").
  bool multi_index_eval = false;
  /// Repair pass addressing the greedy budget knife-edge the paper's
  /// Section V acknowledges: after construction ends, try evicting the
  /// selected indexes contributing least in order to afford a
  /// high-benefit single-attribute index that no longer fits. Swaps are
  /// evaluated exactly and only committed when the total objective
  /// improves — a *targeted* version of the random substitution used by
  /// the DB2 advisor [9]. Off by default (plain Algorithm 1).
  bool swap_repair = false;
  /// Existing selection I-bar* and reconfiguration model; when set, the
  /// step criterion uses F + R instead of F (eq. 3).
  const IndexConfig* existing = nullptr;
  const ReconfigurationModel* reconfiguration = nullptr;
  /// Wall-clock budget / cancellation (default: unbounded). Polled between
  /// units of work — per single-attribute ranking, per candidate move, per
  /// construction round — so the construction loop never commits a
  /// half-evaluated step. On expiry the run stops and returns the
  /// incumbent built so far with Status::Timeout: Algorithm 1 is naturally
  /// anytime because every committed prefix of the trace is a feasible,
  /// budget-respecting selection. See doc/robustness.md.
  rt::Deadline deadline;
  /// Lanes of the Remark-2 (`multi_index_eval`) move evaluation, the one
  /// stage of a run that fans out; everything else — the step-2 ranking,
  /// memoized rounds, pair rounds, prune and swap — runs serially in
  /// ascending unit order at any value, because a memoized round has too
  /// little work to pay for threads. 1 = serial (default), 0 = auto
  /// (exec::DefaultThreads()), n = exactly n lanes. Parallel runs return
  /// *bit-identical* results to serial ones: moves are evaluated in
  /// parallel into per-unit buffers but reduced serially in the serial
  /// code's order, so FP sums, tie-breaks, and even the candidate_evals /
  /// ratio_ties telemetry match. See doc/parallelism.md.
  size_t threads = 1;
};

/// Result of one run.
struct RecursiveResult {
  IndexConfig selection;
  double objective = 0.0;  ///< Final F(selection).
  double memory = 0.0;     ///< Final P(selection).
  double runtime_seconds = 0.0;  ///< Selector time (incl. cache hits,
                                 ///< excl. backend what-if work; see stats).
  std::vector<ConstructionStep> trace;       ///< Committed steps, in order.
  std::vector<ConstructionStep> runners_up;  ///< Remark 1(3), per step.
  /// (memory, F) after every committed step — the H6 frontier curve.
  std::vector<std::pair<double, double>> frontier;
  uint64_t whatif_calls = 0;  ///< Backend calls issued during this run.
  /// OK on natural termination; Timeout when the deadline cut construction
  /// short (selection/objective/memory then describe the best-so-far
  /// incumbent, which is still budget-feasible).
  Status status;
};

/// Runs Algorithm 1 against `engine` (one-index-per-query evaluation,
/// Example 1(i) — the setting of every evaluation in the paper).
RecursiveResult SelectRecursive(WhatIfEngine& engine,
                                const RecursiveOptions& options);

/// Algorithm 1 stepped by its caller — the shard arbiter's view of one
/// shard (doc/sharding.md). Runs the same code as SelectRecursive: the
/// constructor does the setup (base costs, the step-2 ranking), and each
/// Propose/Commit pair is one construction step. The budget is a
/// per-Propose argument because it only filters moves: the first Propose
/// after a commit evaluates the round, later ones re-fold the cached
/// moves under the new budget and evaluate nothing. `options.budget`,
/// `max_steps` and the post-construction passes (`swap_repair`) are
/// ignored; the caller decides when to stop. Not thread-safe; one thread
/// at a time may drive a session.
class RecursiveSession {
 public:
  RecursiveSession(WhatIfEngine& engine, const RecursiveOptions& options);
  /// Publishes the session's selector metrics (runs, rounds, evals).
  ~RecursiveSession();

  RecursiveSession(const RecursiveSession&) = delete;
  RecursiveSession& operator=(const RecursiveSession&) = delete;

  /// The best next step under `budget` (kind, before, after, memory
  /// delta, ratio), or nullptr when no move qualifies — construction is
  /// over at this budget — or the deadline cut the evaluation short
  /// (timed_out()). Valid until the next Propose or Commit.
  const ConstructionStep* Propose(double budget);

  /// Commits the step the last non-null Propose returned.
  void Commit();

  /// The deadline expired (at setup or mid-evaluation).
  bool timed_out() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace idxsel::core

#endif  // IDXSEL_CORE_RECURSIVE_SELECTOR_H_
