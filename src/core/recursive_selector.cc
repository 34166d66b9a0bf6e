#include "core/recursive_selector.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "audit/auditor.h"
#include "common/check.h"
#include "common/float_cmp.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "exec/shared_deadline.h"
#include "exec/thread_pool.h"
#include "kernel/simd.h"
#include "obs/obs.h"

namespace idxsel::core {
namespace {

constexpr double kEps = 1e-9;

/// Registry counters of the selector, resolved once per process. The
/// Runner accumulates plain locals during a run and publishes them here in
/// one batch at the end, keeping the construction loop free of atomics.
struct SelectorMetrics {
  obs::Counter* runs;
  obs::Counter* rounds;
  obs::Counter* steps_create;
  obs::Counter* steps_append;
  obs::Counter* steps_prune;
  obs::Counter* steps_swap;
  obs::Counter* candidate_evals;
  obs::Counter* ratio_ties;
  obs::Histogram* run_latency;
  /// Queries rejected by the 64-bit mask full-cover filter before any
  /// per-query work — the kernel's "posting-list-filtered" volume.
  obs::Counter* kernel_filtered;

  static const SelectorMetrics& Get() {
    static const SelectorMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Default();
      SelectorMetrics m;
      m.runs = registry.GetCounter("idxsel.selector.runs");
      m.rounds = registry.GetCounter("idxsel.selector.rounds");
      m.steps_create = registry.GetCounter("idxsel.selector.steps_create");
      m.steps_append = registry.GetCounter("idxsel.selector.steps_append");
      m.steps_prune = registry.GetCounter("idxsel.selector.steps_prune");
      m.steps_swap = registry.GetCounter("idxsel.selector.steps_swap");
      m.candidate_evals =
          registry.GetCounter("idxsel.selector.candidate_evals");
      m.ratio_ties = registry.GetCounter("idxsel.selector.ratio_ties");
      m.run_latency =
          registry.GetHistogram("idxsel.selector.run_latency_ns");
      m.kernel_filtered =
          registry.GetCounter("idxsel.kernel.filtered_queries");
      return m;
    }();
    return metrics;
  }
};

namespace kernel = idxsel::kernel;

/// A candidate elementary move under evaluation.
struct Move {
  StepKind kind = StepKind::kNewSingle;
  size_t selected_pos = 0;  ///< For appends: position in the selection.
  /// Interned id of the resulting index. Every candidate carries one:
  /// tie-breaks compare tuples through the arena, no Index needed.
  kernel::IndexId after_id = kernel::kInvalidIndexId;
  Index after;  ///< Resulting index; filled by MaterializeMove for the
                ///< committed move and the traced runner-up only.
  double benefit = 0.0;     ///< (F+R) reduction; > 0 for eligible moves.
  double memory_delta = 0.0;
  double ratio = -std::numeric_limits<double>::infinity();
  bool valid = false;
};

/// Per-attribute scratch of one append-evaluation unit: benefit
/// accumulator, interned extension id, and an epoch stamp that makes
/// clearing O(touched) instead of O(num_attributes). Thread-local because
/// parallel rounds run units concurrently — each unit executes wholly on
/// one thread, and the epoch isolates successive units on the same thread.
struct AppendScratch {
  std::vector<double> benefit;
  std::vector<kernel::IndexId> ext_id;
  std::vector<uint64_t> epoch;
  std::vector<workload::AttributeId> touched;
  uint64_t current = 0;

  // Batched-evaluation lane state: per-attribute CSR bookkeeping plus the
  // flat per-unit buffers the simd reductions stream. Capacity persists
  // across units and rounds — the steady state stays allocation-free.
  std::vector<uint32_t> count;     ///< CSR entries per touched attribute
  std::vector<uint32_t> offset;    ///< CSR segment start per attribute
  std::vector<uint32_t> kept;      ///< slots surviving the mask filter
  std::vector<uint32_t> covered;   ///< confirmed fully-covered slots
  std::vector<workload::QueryId> cov_qid;  ///< posting[slot] per entry
  std::vector<double> cov_cw;      ///< CostWithout per covered entry
  std::vector<uint32_t> slot_csr;  ///< (attr, entry) -> slot, attr-grouped
  std::vector<workload::QueryId> qid_csr;
  std::vector<double> cw_csr;
  std::vector<double> batch;       ///< gathered candidate-row costs

  void Begin(size_t num_attributes) {
    if (benefit.size() < num_attributes) {
      benefit.resize(num_attributes);
      ext_id.resize(num_attributes);
      epoch.resize(num_attributes, 0);
      count.resize(num_attributes);
      offset.resize(num_attributes);
    }
    ++current;
    touched.clear();
  }

  static AppendScratch& Local() {
    static thread_local AppendScratch scratch;
    return scratch;
  }
};

class Runner {
 public:
  Runner(WhatIfEngine& engine, const RecursiveOptions& opts)
      : engine_(engine),
        w_(engine.workload()),
        opts_(opts),
        poller_(opts.deadline),
        threads_(exec::ResolveThreads(opts.threads)) {
    if (threads_ > 1) pool_.emplace(threads_);
  }

  RecursiveResult Run() {
    obs::Span run_span("selector", "h6.run");
    Stopwatch watch;
    // Sampled once per run: a sink installed mid-run must not make later
    // rounds journal while earlier ones did not (or vice versa), which
    // would break byte-identity between otherwise identical runs.
    journal_ = telemetry::JournalActive();

    // Dead-on-arrival budgets (advisor spent it all upstream) return the
    // empty — trivially feasible — incumbent without touching the engine.
    if (opts_.deadline.expired()) {
      RecursiveResult result;
      result.status = Status::Timeout("recursive selector: deadline expired");
      result.runtime_seconds = watch.ElapsedSeconds();
      return result;
    }

    const uint64_t calls_before = engine_.stats().calls;

    best_cost_.resize(w_.num_queries());
    second_cost_.assign(w_.num_queries(),
                        std::numeric_limits<double>::infinity());
    best_owner_.assign(w_.num_queries(), kNoOwner);
    single_costs_.resize(w_.num_attributes());
    single_costs_ready_.assign(w_.num_attributes(), 0);
    freq_.resize(w_.num_queries());
    for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
      freq_[j] = w_.query(j).frequency;
    }
    // Intern every single-attribute index up front: ids become
    // deterministic, and the parallel single-ranking lanes never contend
    // on the arena lock.
    single_ids_.resize(w_.num_attributes());
    for (workload::AttributeId i = 0; i < w_.num_attributes(); ++i) {
      single_ids_[i] = engine_.arena().Intern(&i, 1);
    }
    objective_ = 0.0;
    for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
      best_cost_[j] = engine_.BaseCost(j);
      objective_ += w_.query(j).frequency * best_cost_[j];
    }

    RankSingles();

    RecursiveResult result;
    while (result.trace.size() < opts_.max_steps && !poller_.Expired()) {
      obs::Span round_span("selector", "h6.round");
      round_span.SetArg("round", static_cast<double>(result.trace.size()));
      Move best;
      Move runner_up;
      if (journal_) ResetRoundLog();
      if (opts_.multi_index_eval) {
        EvaluateNewSinglesMulti(&best, &runner_up);
        EvaluateAppendsMulti(&best, &runner_up);
      } else {
        EvaluateNewSingles(&best, &runner_up);
        EvaluateAppends(&best, &runner_up);
        if (opts_.pair_steps) EvaluatePairs(&best, &runner_up);
      }
      // A round cut short by the deadline saw only a prefix of the moves;
      // committing its "best" would bias construction toward whatever the
      // enumeration happened to visit first. Keep the pre-round incumbent.
      if (poller_.expired()) break;
      if (!best.valid || best.ratio <= opts_.min_ratio) {
        stop_reason_ = best.valid ? "min-ratio" : "no-eligible-move";
        break;
      }
      // Candidates travel as interned ids; the one committed (and the
      // traced runner-up) are the only ones ever materialized.
      MaterializeMove(&best);
      MaterializeMove(&runner_up);
      ++committed_rounds_;
      if (best.kind == StepKind::kAppend ||
          best.kind == StepKind::kAppendPair) {
        ++append_steps_;
      } else {
        ++create_steps_;
      }

      const double objective_before = objective_ + ReconfigTotal();
      if (opts_.multi_index_eval) {
        CommitMulti(best);
      } else {
        Commit(best);
      }
      const double objective_after = objective_ + ReconfigTotal();

      // End-of-round is the auditor's quiescent point: the pool's lanes
      // have joined and the commit's dense-row inheritance is complete, so
      // dense tables and hashed caches must agree exactly here. Debug
      // builds and the sanitizer CI leg (IDXSEL_AUDIT=1 env) run this.
      if (audit::Enabled()) {
        const audit::InvariantAuditor auditor(&engine_);
        audit::InvariantAuditor::CheckClean(auditor.AuditAll());
      }

      if (journal_) {
        EmitCommitRecord(best, runner_up, objective_before, objective_after);
        // A max-steps exit skips the next round's reset; clear here so the
        // stop record never re-lists rejects the commit already carries.
        ResetRoundLog();
      }

      ConstructionStep step;
      step.kind = best.kind;
      if (best.kind == StepKind::kAppend ||
          best.kind == StepKind::kAppendPair) {
        step.before = replaced_;
      }
      step.after = best.after;
      step.objective_before = objective_before;
      step.objective_after = objective_after;
      step.memory_delta = best.memory_delta;
      step.ratio = best.ratio;
      result.trace.push_back(step);
      if (runner_up.valid) {
        ConstructionStep alt;
        alt.kind = runner_up.kind;
        alt.after = runner_up.after;
        alt.memory_delta = runner_up.memory_delta;
        alt.ratio = runner_up.ratio;
        result.runners_up.push_back(alt);
      }
      if (opts_.prune_unused) PruneUnused(&result);
      result.frontier.emplace_back(used_memory_, objective_);
    }

    if (journal_) EmitStopRecord();

    // The repair pass relies on the one-index bookkeeping.
    if (opts_.swap_repair && !opts_.multi_index_eval) SwapRepair(&result);

    for (const Index& k : selected_) result.selection.Insert(k);
    result.objective = objective_;
    result.memory = used_memory_;
    result.runtime_seconds = watch.ElapsedSeconds();
    result.whatif_calls = engine_.stats().calls - calls_before;
    result.status =
        poller_.expired()
            ? Status::Timeout("recursive selector: deadline expired")
            : Status::Ok();
    const SelectorMetrics& metrics = SelectorMetrics::Get();
    metrics.runs->Add(1);
    metrics.rounds->Add(committed_rounds_);
    metrics.steps_create->Add(create_steps_);
    metrics.steps_append->Add(append_steps_);
    metrics.steps_prune->Add(prune_steps_);
    metrics.steps_swap->Add(swap_steps_);
    metrics.candidate_evals->Add(candidate_evals_);
    metrics.ratio_ties->Add(ratio_ties_);
    metrics.kernel_filtered->Add(
        kernel_filtered_.load(std::memory_order_relaxed));
    if (obs::Enabled()) {
      metrics.run_latency->Record(
          static_cast<uint64_t>(result.runtime_seconds * 1e9));
    }
    return result;
  }

 private:
  // -- Selection journal (decision provenance) -------------------------------
  //
  // Emitted through the telemetry bridge (common/telemetry.h), never
  // through obs directly, and only at serial points — Consider() and the
  // commit block run single-threaded in both the serial and the parallel
  // evaluation paths, so the journal is byte-identical at any thread
  // count and SIMD dispatch level.

  /// Listed rejected moves per round; everything beyond is only counted.
  static constexpr size_t kJournalRejectCap = 32;

  struct RejectedMove {
    Move move;
    const char* reason;
  };

  void ResetRoundLog() {
    round_rejects_.clear();
    round_evals_ = 0;
    round_no_benefit_ = 0;
    round_budget_exceeded_ = 0;
    round_sanitized_ = 0;
  }

  void LogRejectedMove(Move move, const char* reason) {
    if (reason[0] == 's') {
      ++round_sanitized_;
    } else {
      ++round_budget_exceeded_;
    }
    if (round_rejects_.size() < kJournalRejectCap) {
      round_rejects_.push_back(RejectedMove{std::move(move), reason});
    }
  }

  /// Canonical label of a move's resulting index; moves that were never
  /// materialized resolve through the (const, stats-free) arena lookup.
  std::string MoveLabel(const Move& move) const {
    if (move.after.empty()) {
      return engine_.MaterializeIndex(move.after_id).ToString();
    }
    return move.after.ToString();
  }

  std::string RoundNote() const {
    return "evals=" + std::to_string(round_evals_) +
           " no_benefit=" + std::to_string(round_no_benefit_) +
           " budget_exceeded=" + std::to_string(round_budget_exceeded_) +
           " listed_rejects=" + std::to_string(round_rejects_.size());
  }

  /// Appends the round's capped reject list to `candidates`, with labels
  /// owned by `labels` (pre-reserved so c_str() pointers stay stable).
  void AppendRejects(std::vector<std::string>* labels,
                     std::vector<telemetry::JournalCandidate>* candidates)
      const {
    for (const RejectedMove& rejected : round_rejects_) {
      labels->push_back(MoveLabel(rejected.move));
      telemetry::JournalCandidate candidate;
      candidate.index = labels->back().c_str();
      candidate.reject = rejected.reason;
      candidate.benefit = rejected.move.benefit;
      candidate.memory_delta = rejected.move.memory_delta;
      candidate.ratio = rejected.move.memory_delta > 0.0
                            ? rejected.move.benefit /
                                  rejected.move.memory_delta
                            : 0.0;
      candidates->push_back(candidate);
    }
  }

  void EmitCommitRecord(const Move& best, const Move& runner_up,
                        double objective_before, double objective_after) {
    std::vector<std::string> labels;
    labels.reserve(2 + round_rejects_.size());
    std::vector<telemetry::JournalCandidate> candidates;
    candidates.reserve(2 + round_rejects_.size());

    labels.push_back(best.after.ToString());
    telemetry::JournalCandidate winner;
    winner.index = labels.back().c_str();
    winner.benefit = best.benefit;
    winner.memory_delta = best.memory_delta;
    winner.ratio = best.ratio;
    candidates.push_back(winner);
    if (runner_up.valid) {
      labels.push_back(runner_up.after.ToString());
      telemetry::JournalCandidate second;
      second.index = labels.back().c_str();
      second.reject = "dominated";
      second.benefit = runner_up.benefit;
      second.memory_delta = runner_up.memory_delta;
      second.ratio = runner_up.ratio;
      candidates.push_back(second);
    }
    AppendRejects(&labels, &candidates);

    telemetry::JournalEvent event;
    event.strategy = "h6";
    event.action = "commit";
    event.round = committed_rounds_;
    event.winner = labels.front().c_str();
    event.winner_ratio = best.ratio;
    event.margin = runner_up.valid ? best.ratio - runner_up.ratio : 0.0;
    event.objective_before = objective_before;
    event.objective_after = objective_after;
    event.memory_after = used_memory_;
    event.sanitized_whatif = round_sanitized_;
    event.candidates = candidates.data();
    event.num_candidates = candidates.size();
    const std::string note = RoundNote();
    event.note = note.c_str();
    telemetry::EmitJournal(event);
  }

  /// Terminal record. A timeout stop drops the in-flight round's reject
  /// list: a deadline can fire anywhere mid-evaluation, so the partial
  /// list is the one journal ingredient that is *not* deterministic.
  void EmitStopRecord() {
    telemetry::JournalEvent event;
    event.strategy = "h6";
    event.action = "stop";
    event.round = committed_rounds_;
    event.objective_after = objective_;
    event.memory_after = used_memory_;
    std::vector<std::string> labels;
    std::vector<telemetry::JournalCandidate> candidates;
    if (poller_.expired()) {
      event.note = "timeout";
    } else {
      event.note = stop_reason_;
      event.sanitized_whatif = round_sanitized_;
      labels.reserve(round_rejects_.size());
      candidates.reserve(round_rejects_.size());
      AppendRejects(&labels, &candidates);
      event.candidates = candidates.data();
      event.num_candidates = candidates.size();
    }
    telemetry::EmitJournal(event);
  }

  void EmitPruneRecord(const Index& pruned, double objective_before,
                       double objective_after, double memory_delta) {
    const std::string label = pruned.ToString();
    telemetry::JournalEvent event;
    event.strategy = "h6";
    event.action = "prune";
    event.round = committed_rounds_;
    event.winner = label.c_str();
    event.objective_before = objective_before;
    event.objective_after = objective_after;
    event.memory_after = used_memory_;
    telemetry::JournalCandidate candidate;
    candidate.index = label.c_str();
    candidate.reject = "dominated";
    candidate.memory_delta = memory_delta;
    event.candidates = &candidate;
    event.num_candidates = 1;
    event.note = "unused by every query";
    telemetry::EmitJournal(event);
  }

  void EmitSwapRecord(const Index& added, const std::vector<Index>& evicted,
                      double objective_before, double objective_after) {
    const std::string label = added.ToString();
    std::string note = "evicted=";
    for (size_t e = 0; e < evicted.size(); ++e) {
      if (e != 0) note += ',';
      note += evicted[e].ToString();
    }
    telemetry::JournalEvent event;
    event.strategy = "h6";
    event.action = "swap";
    event.round = committed_rounds_;
    event.winner = label.c_str();
    event.objective_before = objective_before;
    event.objective_after = objective_after;
    event.memory_after = used_memory_;
    event.note = note.c_str();
    telemetry::EmitJournal(event);
  }

  // -- Reconfiguration accounting -------------------------------------------

  bool InExisting(const Index& k) const {
    return opts_.existing != nullptr && opts_.existing->Contains(k);
  }

  /// R-delta of adding `added` in place of `removed` (kInvalidIndexId:
  /// nothing replaced). 0 without a reconfiguration model; only with one
  /// are the candidate indexes materialized.
  double ReconfigDelta(kernel::IndexId removed, kernel::IndexId added) const {
    if (opts_.reconfiguration == nullptr) return 0.0;
    double delta = 0.0;
    const Index k_added = engine_.MaterializeIndex(added);
    if (!InExisting(k_added)) {
      delta += opts_.reconfiguration->CreateCost(k_added);
    }
    if (removed != kernel::kInvalidIndexId) {
      const Index k_removed = engine_.MaterializeIndex(removed);
      if (!InExisting(k_removed)) {
        delta -= opts_.reconfiguration->CreateCost(k_removed);
      }
      // A replaced index that pre-exists must now be dropped; it enters
      // I-bar \ I. (Dropping costs are part of ReconfigurationParams.)
    }
    return delta;
  }

  /// Current total R(I, I-bar) (0 when no model configured).
  double ReconfigTotal() const {
    if (opts_.reconfiguration == nullptr) return 0.0;
    costmodel::IndexConfig current;
    for (const Index& k : selected_) current.Insert(k);
    static const costmodel::IndexConfig kEmpty;
    return opts_.reconfiguration->Cost(
        current, opts_.existing != nullptr ? *opts_.existing : kEmpty);
  }

  // -- Move evaluation -------------------------------------------------------

  static constexpr size_t kNoOwner = ~size_t{0};

  /// min(f_j(0), min over selected indexes except `skip_pos`) in O(1) via
  /// the incrementally maintained best/second-best bookkeeping.
  double CostWithout(workload::QueryId j, size_t skip_pos) const {
    return best_owner_[j] == skip_pos ? second_cost_[j] : best_cost_[j];
  }

  /// Registers cost `c` of selected position `pos` for query j in the
  /// best/second-best bookkeeping.
  void InsertCost(workload::QueryId j, size_t pos, double c) {
    if (c < best_cost_[j]) {
      second_cost_[j] = best_cost_[j];
      objective_ -= w_.query(j).frequency * (best_cost_[j] - c);
      best_cost_[j] = c;
      best_owner_[j] = pos;
    } else if (c < second_cost_[j]) {
      second_cost_[j] = c;
    }
  }

  /// Cached per-attribute f_j({i}) cost arrays, SoA-aligned with the
  /// posting list w_.queries_with(i) (element s belongs to posting[s]);
  /// the engine is consulted once per pair, every later step reads the
  /// flat array — and the benefit reduction streams it 4 lanes at a time.
  const std::vector<double>& SingleCosts(workload::AttributeId i) {
    if (!single_costs_ready_[i]) {
      single_costs_ready_[i] = 1;
      auto& list = single_costs_[i];
      const auto& posting = w_.queries_with(i);
      list.reserve(posting.size());
      // Warming here also fills {i}'s dense row, which every later step
      // reads hash-free.
      const kernel::IndexId id = single_ids_[i];
      for (uint32_t s = 0; s < posting.size(); ++s) {
        list.push_back(engine_.CostWithIndexDense(posting[s], id, s));
      }
    }
    return single_costs_[i];
  }

  bool SingleSelected(workload::AttributeId i) const {
    for (const Index& k : selected_) {
      if (k.width() == 1 && k.leading() == i) return true;
    }
    return false;
  }

  /// Strict "a beats b" order on candidate moves: ratio, then the
  /// deterministic lexicographic tuple tie-break, compared through the
  /// arena (arena order is plain lexicographic comparison of the tuples,
  /// i.e. Index::operator<).
  bool MoveBetter(const Move& a, const Move& b) const {
    if (!ExactlyEqual(a.ratio, b.ratio)) return a.ratio > b.ratio;
    return engine_.arena().Less(a.after_id, b.after_id);
  }

  void Consider(Move move, Move* best, Move* runner_up) {
    ++candidate_evals_;
    if (journal_) ++round_evals_;
    if (!(move.benefit > kEps) || !(move.memory_delta > 0.0)) {
      // A non-finite memory delta can only come from a sanitized what-if
      // size (WhatIfEngine maps garbage sizes to +infinity); everything
      // else here simply does not improve the objective.
      if (journal_) {
        if (!std::isfinite(move.memory_delta)) {
          LogRejectedMove(std::move(move), "sanitized-whatif");
        } else {
          ++round_no_benefit_;
        }
      }
      return;
    }
    if (used_memory_ + move.memory_delta > opts_.budget + kEps) {
      if (journal_) {
        const char* reason = std::isfinite(move.memory_delta)
                                 ? "budget-exceeded"
                                 : "sanitized-whatif";
        LogRejectedMove(std::move(move), reason);
      }
      return;
    }
    move.ratio = move.benefit / move.memory_delta;
    move.valid = true;
    // A ratio tie means the deterministic tuple ordering — not the step
    // criterion — decides the move; worth counting because ties make the
    // greedy's choice sensitive to index enumeration order.
    if (best->valid && ExactlyEqual(move.ratio, best->ratio)) ++ratio_ties_;
    if (!best->valid || MoveBetter(move, *best)) {
      if (best->valid) *runner_up = *best;
      *best = move;
    } else if (!runner_up->valid || MoveBetter(move, *runner_up)) {
      *runner_up = move;
    }
  }

  /// Evaluates `n` independent units of move generation and reduces their
  /// candidate moves into best/runner-up. `eval(u, out)` must append unit
  /// u's moves to `out` in the order the serial code would have Considered
  /// them, must not touch Runner state other than the (read-only during a
  /// round) bookkeeping and the thread-safe engine, and must not Consider
  /// itself.
  ///
  /// Serial path (threads == 1): evaluate-then-Consider per unit — the
  /// same moves in the same order as the historical interleaved code,
  /// since Consider only folds into best/runner-up, which no evaluation
  /// reads. Parallel path: all units evaluate concurrently into per-unit
  /// buffers, then one serial pass Considers them in unit order. Both
  /// paths therefore Consider the identical move sequence: bit-identical
  /// selections, FP sums, and telemetry regardless of thread count.
  template <typename Eval>
  void EvaluateUnits(size_t n, const Eval& eval, Move* best,
                     Move* runner_up) {
    if (n == 0) return;
    if (!pool_.has_value()) {
      for (size_t u = 0; u < n; ++u) {
        if (poller_.Expired()) return;
        serial_moves_.clear();
        eval(u, serial_moves_);
        for (const Move& move : serial_moves_) {
          Consider(move, best, runner_up);
        }
      }
      return;
    }
    // Buffers are members so steady-state rounds reuse their capacity.
    if (unit_buffers_.size() < n) unit_buffers_.resize(n);
    for (size_t u = 0; u < n; ++u) unit_buffers_[u].clear();
    pool_->ParallelFor(n, [&](size_t u) {
      if (poller_.Expired()) return;
      eval(u, unit_buffers_[u]);
    });
    // A deadline hit mid-evaluation leaves some buffers empty; the main
    // loop discards the whole round (same contract as the serial early
    // return), so skip the reduction.
    if (poller_.expired()) return;
    for (size_t u = 0; u < n; ++u) {
      for (const Move& move : unit_buffers_[u]) {
        Consider(move, best, runner_up);
      }
    }
  }

  /// Benefit of creating single-attribute index {i} against the current
  /// state: sum_j b_j max(0, best_cost_j - f_j({i})), vectorized with the
  /// serial loop's summation order (kernel/simd.h).
  double SingleBenefit(workload::AttributeId i) {
    const std::vector<double>& costs = SingleCosts(i);
    return kernel::simd::ReduceBenefitIndexed(
        costs.data(), w_.queries_with(i).data(), best_cost_.data(),
        freq_.data(), costs.size());
  }

  /// Step 2's ranking of single-attribute indexes, reused for Remark 1(1).
  /// Deadline expiry truncates the ranking; the main loop then observes the
  /// latched expiry before running a round, so a partial ranking is never
  /// acted on.
  void RankSingles() {
    std::vector<std::pair<double, workload::AttributeId>> ranked;
    if (!pool_.has_value()) {
      ranked.reserve(w_.num_attributes());
      for (workload::AttributeId i = 0; i < w_.num_attributes(); ++i) {
        if (poller_.Expired()) break;
        const double mem = engine_.IndexMemory(Index(i));
        const double ratio = SingleBenefit(i) / std::max(1.0, mem);
        ranked.emplace_back(-ratio, i);
      }
    } else {
      // Each lane ranks its own attributes: SingleCosts(i) and the ready
      // flag live in per-attribute slots (distinct memory locations), so
      // the warm-up writes never collide; per-attribute FP sums run in the
      // same within-attribute order as serial. An expiry mid-ranking
      // leaves holes, but the latched verdict then prevents any round (and
      // the repair pass) from consuming the ranking — same contract as the
      // serial early break.
      ranked.assign(w_.num_attributes(),
                    {0.0, workload::AttributeId{0}});
      pool_->ParallelFor(w_.num_attributes(), [&](size_t u) {
        if (poller_.Expired()) return;
        const workload::AttributeId i =
            static_cast<workload::AttributeId>(u);
        const double mem = engine_.IndexMemory(Index(i));
        const double ratio = SingleBenefit(i) / std::max(1.0, mem);
        ranked[u] = {-ratio, i};
      });
      if (poller_.expired()) ranked.clear();
    }
    std::sort(ranked.begin(), ranked.end());
    const size_t keep = std::min(opts_.n_best_singles, ranked.size());
    eligible_singles_.clear();
    eligible_singles_.reserve(keep);
    for (size_t r = 0; r < keep; ++r) {
      eligible_singles_.push_back(ranked[r].second);
    }
    std::sort(eligible_singles_.begin(), eligible_singles_.end());
  }

  /// Step (3a): one new single-attribute index per eligible attribute not
  /// selected yet. Sizes and maintenance come from the dense id-addressed
  /// tables; no Index is materialized.
  void EvaluateNewSingles(Move* best, Move* runner_up) {
    EvaluateUnits(
        eligible_singles_.size(),
        [&](size_t u, std::vector<Move>& out) {
          const workload::AttributeId i = eligible_singles_[u];
          if (SingleSelected(i)) return;  // step (3a): I and {i} disjoint
          const kernel::IndexId id = single_ids_[i];
          Move move;
          move.kind = StepKind::kNewSingle;
          move.after_id = id;
          move.benefit = SingleBenefit(i) -
                         ReconfigDelta(kernel::kInvalidIndexId, id) -
                         engine_.MaintenancePenaltyDense(id);
          move.memory_delta = engine_.IndexMemoryDense(id);
          out.push_back(std::move(move));
        },
        best, runner_up);
  }

  /// Step (3b), batched: for every selected k, the extensions k ⊕ a by
  /// attributes a of queries fully covering k. Only those queries can
  /// change cost, and each candidate's benefit sums them in ascending
  /// query order:
  ///
  ///   1. the full-cover test (attrs(k) subset of q_j) streams 4 query
  ///      masks per step over the posting-order mirror
  ///      (simd::FilterMasks); lossy-mask hits are still confirmed on the
  ///      tuple;
  ///   2. one discovery pass interns extensions in first-touch order and
  ///      lays the affected (slot, query, cost-without) triples out as a
  ///      per-candidate CSR, ascending slots per candidate;
  ///   3. when every candidate row is warm (the steady state: round r-1
  ///      filled them), each candidate is costed in one
  ///      CostWithIndexBatch pass over its dense row and reduced by
  ///      simd::ReduceAppendBenefit — zero backend interaction;
  ///   4. ANY cold slot demotes the whole unit to the query-outer loop of
  ///      per-call lookups, so backend calls (and
  ///      rt::FaultInjectingBackend's PRNG stream) keep one fixed order.
  ///      Per-candidate fallback would regroup calls candidate by
  ///      candidate — that is why the demotion is all-or-nothing per unit.
  void EvaluateAppends(Move* best, Move* runner_up) {
    const kernel::IndexArena& arena = engine_.arena();
    const kernel::QueryMasks& qmasks = engine_.query_masks();
    EvaluateUnits(
        selected_.size(),
        [&](size_t pos, std::vector<Move>& out) {
          const kernel::IndexId kid = selected_ids_[pos];
          const uint32_t kwidth = arena.width(kid);
          if (kwidth >= opts_.max_index_width) return;
          const double base_mem = engine_.IndexMemoryDense(kid);
          const uint64_t kmask = arena.mask(kid);
          AppendScratch& scratch = AppendScratch::Local();
          scratch.Begin(w_.num_attributes());
          const workload::AttributeId lead = arena.leading(kid);
          const auto& posting = w_.queries_with(lead);

          // (1) mask full-cover filter, 4 query masks per step.
          if (scratch.kept.size() < posting.size()) {
            scratch.kept.resize(posting.size());
          }
          const size_t kept_n = kernel::simd::FilterMasks(
              qmasks.posting_masks(lead), posting.size(), kmask,
              scratch.kept.data());
          if (kept_n != posting.size()) {
            kernel_filtered_.fetch_add(posting.size() - kept_n,
                                       std::memory_order_relaxed);
          }

          // (2) discovery: confirm lossy-mask hits, snapshot
          // cost-without, intern extensions (first-touch order), count CSR
          // entries.
          scratch.covered.clear();
          scratch.cov_qid.clear();
          scratch.cov_cw.clear();
          size_t total_pairs = 0;
          for (size_t t = 0; t < kept_n; ++t) {
            const uint32_t s = scratch.kept[t];
            const workload::QueryId j = posting[s];
            const auto& q_attrs = w_.query(j).attributes;
            if (!qmasks.exact() &&
                selected_[pos].CoverablePrefixLength(q_attrs) != kwidth) {
              continue;
            }
            scratch.covered.push_back(s);
            scratch.cov_qid.push_back(j);
            scratch.cov_cw.push_back(CostWithout(j, pos));
            for (workload::AttributeId a : q_attrs) {
              if (arena.Contains(kid, a)) continue;
              if (scratch.epoch[a] != scratch.current) {
                scratch.epoch[a] = scratch.current;
                scratch.benefit[a] = 0.0;
                scratch.count[a] = 0;
                scratch.ext_id[a] = engine_.arena().InternAppend(kid, a);
                scratch.touched.push_back(a);
              }
              ++scratch.count[a];
              ++total_pairs;
            }
          }

          if (!scratch.touched.empty()) {
            // (2b) CSR offsets, then an ascending-slot fill per candidate
            // (count doubles as the fill cursor and ends back at the
            // segment length).
            uint32_t csr_acc = 0;
            for (workload::AttributeId a : scratch.touched) {
              scratch.offset[a] = csr_acc;
              csr_acc += scratch.count[a];
              scratch.count[a] = 0;
            }
            if (scratch.slot_csr.size() < total_pairs) {
              scratch.slot_csr.resize(total_pairs);
              scratch.qid_csr.resize(total_pairs);
              scratch.cw_csr.resize(total_pairs);
              scratch.batch.resize(total_pairs);
            }
            for (size_t e = 0; e < scratch.covered.size(); ++e) {
              const workload::QueryId j = scratch.cov_qid[e];
              for (workload::AttributeId a : w_.query(j).attributes) {
                if (arena.Contains(kid, a)) continue;
                const uint32_t idx = scratch.offset[a] + scratch.count[a]++;
                scratch.slot_csr[idx] = scratch.covered[e];
                scratch.qid_csr[idx] = j;
                scratch.cw_csr[idx] = scratch.cov_cw[e];
              }
            }

            // (3) warmth peek — raw reads, no accounting, so a cold
            // candidate leaves nothing to compensate before the fallback.
            bool all_warm = true;
            for (workload::AttributeId a : scratch.touched) {
              if (!engine_.PeekDenseCostBlock(
                      scratch.ext_id[a],
                      scratch.slot_csr.data() + scratch.offset[a],
                      scratch.count[a],
                      scratch.batch.data() + scratch.offset[a])) {
                all_warm = false;
                break;
              }
            }

            if (all_warm) {
              // (3a) batched what-if + vector reduction per candidate.
              for (workload::AttributeId a : scratch.touched) {
                const uint32_t off = scratch.offset[a];
                const uint32_t cnt = scratch.count[a];
                const bool warm = engine_.CostWithIndexBatch(
                    scratch.ext_id[a], scratch.slot_csr.data() + off, cnt,
                    scratch.batch.data() + off);
                // Slots only ever transition unset -> set within a round.
                IDXSEL_DCHECK(warm);
                scratch.benefit[a] = kernel::simd::ReduceAppendBenefit(
                    scratch.batch.data() + off, scratch.cw_csr.data() + off,
                    scratch.qid_csr.data() + off, best_cost_.data(),
                    freq_.data(), cnt);
              }
            } else {
              // (3b) whole-unit query-outer, attribute-inner order of
              // per-call dense lookups. The extension keeps k's leading
              // attribute, so it shares k's posting list and the covered
              // slot is also its dense row slot.
              for (size_t e = 0; e < scratch.covered.size(); ++e) {
                const uint32_t s = scratch.covered[e];
                const workload::QueryId j = scratch.cov_qid[e];
                const double cost_without = scratch.cov_cw[e];
                for (workload::AttributeId a : w_.query(j).attributes) {
                  if (arena.Contains(kid, a)) continue;
                  const double new_cost = std::min(
                      cost_without,
                      engine_.CostWithIndexDense(j, scratch.ext_id[a], s));
                  scratch.benefit[a] +=
                      freq_[j] * (best_cost_[j] - new_cost);
                }
              }
            }
          }

          std::sort(scratch.touched.begin(), scratch.touched.end());
          for (workload::AttributeId a : scratch.touched) {
            const kernel::IndexId eid = scratch.ext_id[a];
            Move move;
            move.kind = StepKind::kAppend;
            move.selected_pos = pos;
            move.after_id = eid;
            move.benefit = scratch.benefit[a] - ReconfigDelta(kid, eid) -
                           (engine_.MaintenancePenaltyDense(eid) -
                            engine_.MaintenancePenaltyDense(kid));
            move.memory_delta = engine_.IndexMemoryDense(eid) - base_mem;
            out.push_back(std::move(move));
          }
        },
        best, runner_up);
  }

  /// Fills `after` of a move; only the committed move and the traced
  /// runner-up ever pay the materialization.
  void MaterializeMove(Move* move) {
    if (move->valid && move->after.empty()) {
      move->after = engine_.MaterializeIndex(move->after_id);
    }
  }

  /// Remark 1(4): evaluate two-attribute moves. New pairs {a, b} are
  /// seeded from the eligible singles a and every attribute b co-occurring
  /// with a; append pairs extend a selected k by two attributes of one
  /// fully-covering query at once. A pair index applies to every query
  /// holding its first new attribute — a query lacking the second runs on
  /// the pair's prefix — so each benefit sums all of those queries, in
  /// ascending order.
  void EvaluatePairs(Move* best, Move* runner_up) {
    EvaluateUnits(
        eligible_singles_.size(),
        [&](size_t u, std::vector<Move>& out) {
          const workload::AttributeId a = eligible_singles_[u];
          const auto& posting = w_.queries_with(a);
          std::vector<workload::AttributeId> partners;
          for (workload::QueryId j : posting) {
            for (workload::AttributeId b : w_.query(j).attributes) {
              if (b != a) partners.push_back(b);
            }
          }
          std::sort(partners.begin(), partners.end());
          partners.erase(std::unique(partners.begin(), partners.end()),
                         partners.end());
          for (workload::AttributeId b : partners) {
            const kernel::IndexId id =
                engine_.arena().InternAppend(single_ids_[a], b);
            // {a, b} leads with a: posting slot s is its dense row slot.
            double benefit = 0.0;
            for (uint32_t s = 0; s < posting.size(); ++s) {
              const workload::QueryId j = posting[s];
              const double new_cost = std::min(
                  best_cost_[j], engine_.CostWithIndexDense(j, id, s));
              benefit += freq_[j] * (best_cost_[j] - new_cost);
            }
            Move move;
            move.kind = StepKind::kNewPair;
            move.after_id = id;
            move.benefit = benefit -
                           ReconfigDelta(kernel::kInvalidIndexId, id) -
                           engine_.MaintenancePenaltyDense(id);
            move.memory_delta = engine_.IndexMemoryDense(id);
            out.push_back(std::move(move));
          }
        },
        best, runner_up);
    if (poller_.expired()) return;
    // Append pairs k -> k ++ a ++ b.
    EvaluateUnits(
        selected_.size(),
        [&](size_t pos, std::vector<Move>& out) {
          const Index& k = selected_[pos];
          const kernel::IndexId kid = selected_ids_[pos];
          if (k.width() + 2 > opts_.max_index_width) return;
          const double base_mem = engine_.IndexMemoryDense(kid);
          const auto& posting = w_.queries_with(k.leading());
          std::vector<uint32_t> covered;
          std::vector<std::pair<workload::AttributeId, workload::AttributeId>>
              pairs;
          for (uint32_t s = 0; s < posting.size(); ++s) {
            const auto& q_attrs = w_.query(posting[s]).attributes;
            if (k.CoverablePrefixLength(q_attrs) != k.width()) continue;
            covered.push_back(s);
            for (workload::AttributeId a : q_attrs) {
              if (k.Contains(a)) continue;
              for (workload::AttributeId b : q_attrs) {
                if (b != a && !k.Contains(b)) pairs.emplace_back(a, b);
              }
            }
          }
          std::sort(pairs.begin(), pairs.end());
          pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
          for (const auto& [a, b] : pairs) {
            const kernel::IndexId id = engine_.arena().InternAppend(
                engine_.arena().InternAppend(kid, a), b);
            double benefit = 0.0;
            for (uint32_t s : covered) {
              const workload::QueryId j = posting[s];
              const auto& q_attrs = w_.query(j).attributes;
              if (!std::binary_search(q_attrs.begin(), q_attrs.end(), a)) {
                continue;
              }
              const double new_cost = std::min(
                  CostWithout(j, pos), engine_.CostWithIndexDense(j, id, s));
              benefit += freq_[j] * (best_cost_[j] - new_cost);
            }
            Move move;
            move.kind = StepKind::kAppendPair;
            move.selected_pos = pos;
            move.after_id = id;
            move.benefit = benefit - ReconfigDelta(kid, id) -
                           (engine_.MaintenancePenaltyDense(id) -
                            engine_.MaintenancePenaltyDense(kid));
            move.memory_delta = engine_.IndexMemoryDense(id) - base_mem;
            out.push_back(std::move(move));
          }
        },
        best, runner_up);
  }

  // -- Remark-2 (multi-index) evaluation --------------------------------------
  //
  // A different cost model, not a twin of the evaluators above: query
  // costs depend on the whole configuration, so every candidate re-costs
  // its affected queries through WhatIfEngine::CostWithConfig.

  costmodel::IndexConfig CurrentConfig() const {
    costmodel::IndexConfig config;
    for (const Index& k : selected_) config.Insert(k);
    return config;
  }

  void EvaluateNewSinglesMulti(Move* best, Move* runner_up) {
    const costmodel::IndexConfig current = CurrentConfig();
    EvaluateUnits(
        eligible_singles_.size(),
        [&](size_t u, std::vector<Move>& out) {
          const workload::AttributeId i = eligible_singles_[u];
          if (SingleSelected(i)) return;
          const Index k(i);
          const kernel::IndexId id = single_ids_[i];
          costmodel::IndexConfig hypothetical = current;
          hypothetical.Insert(k);
          double benefit = 0.0;
          for (workload::QueryId j : w_.queries_with(i)) {
            benefit +=
                w_.query(j).frequency *
                (best_cost_[j] - engine_.CostWithConfig(j, hypothetical));
          }
          Move move;
          move.kind = StepKind::kNewSingle;
          move.after_id = id;
          move.after = k;
          move.benefit = benefit -
                         ReconfigDelta(kernel::kInvalidIndexId, id) -
                         engine_.MaintenancePenalty(k);
          move.memory_delta = engine_.IndexMemory(k);
          out.push_back(std::move(move));
        },
        best, runner_up);
  }

  void EvaluateAppendsMulti(Move* best, Move* runner_up) {
    const costmodel::IndexConfig current = CurrentConfig();
    EvaluateUnits(
        selected_.size(),
        [&](size_t pos, std::vector<Move>& out) {
          const Index& k = selected_[pos];
          const kernel::IndexId kid = selected_ids_[pos];
          if (k.width() >= opts_.max_index_width) return;
          const double base_mem = engine_.IndexMemory(k);

          // Collect candidate extension attributes from fully-covering
          // queries.
          std::vector<workload::AttributeId> extensions;
          for (workload::QueryId j : w_.queries_with(k.leading())) {
            const auto& q_attrs = w_.query(j).attributes;
            if (k.CoverablePrefixLength(q_attrs) != k.width()) continue;
            for (workload::AttributeId a : q_attrs) {
              if (!k.Contains(a)) extensions.push_back(a);
            }
          }
          std::sort(extensions.begin(), extensions.end());
          extensions.erase(
              std::unique(extensions.begin(), extensions.end()),
              extensions.end());

          for (workload::AttributeId a : extensions) {
            const Index k_ext = k.Append(a);
            const kernel::IndexId eid = engine_.arena().InternAppend(kid, a);
            costmodel::IndexConfig hypothetical = current;
            hypothetical.Erase(k);
            hypothetical.Insert(k_ext);
            double benefit = 0.0;
            for (workload::QueryId j : w_.queries_with(k.leading())) {
              const auto& q_attrs = w_.query(j).attributes;
              if (k.CoverablePrefixLength(q_attrs) != k.width()) continue;
              if (!std::binary_search(q_attrs.begin(), q_attrs.end(), a)) {
                continue;
              }
              benefit +=
                  w_.query(j).frequency *
                  (best_cost_[j] - engine_.CostWithConfig(j, hypothetical));
            }
            Move move;
            move.kind = StepKind::kAppend;
            move.selected_pos = pos;
            move.after_id = eid;
            move.after = k_ext;
            move.benefit = benefit - ReconfigDelta(kid, eid) -
                           (engine_.MaintenancePenalty(k_ext) -
                            engine_.MaintenancePenalty(k));
            move.memory_delta = engine_.IndexMemory(k_ext) - base_mem;
            out.push_back(std::move(move));
          }
        },
        best, runner_up);
  }

  void CommitMulti(const Move& move) {
    replaced_ = Index();
    objective_ += engine_.MaintenancePenalty(move.after);
    if (move.kind == StepKind::kAppend || move.kind == StepKind::kAppendPair) {
      objective_ -= engine_.MaintenancePenalty(selected_[move.selected_pos]);
    }
    if (move.kind == StepKind::kNewSingle || move.kind == StepKind::kNewPair) {
      selected_.push_back(move.after);
      selected_ids_.push_back(move.after_id);
    } else {
      replaced_ = selected_[move.selected_pos];
      selected_[move.selected_pos] = move.after;
      selected_ids_[move.selected_pos] = move.after_id;
    }
    used_memory_ += move.memory_delta;
    // Refresh the costs of every query the new configuration could touch
    // (same-table queries of the changed index).
    const costmodel::IndexConfig config = CurrentConfig();
    for (workload::QueryId j : w_.queries_with(move.after.leading())) {
      const double cost = engine_.CostWithConfig(j, config);
      objective_ += w_.query(j).frequency * (cost - best_cost_[j]);
      best_cost_[j] = cost;
    }
  }

  /// Remark-2 usage: selected position p is used iff removing it raises
  /// some query's CostWithConfig. Only queries of its leading attribute's
  /// posting list can use it.
  bool UsedMulti(size_t p) const {
    const costmodel::IndexConfig config = CurrentConfig();
    costmodel::IndexConfig without = config;
    without.Erase(selected_[p]);
    for (workload::QueryId j : w_.queries_with(selected_[p].leading())) {
      if (engine_.CostWithConfig(j, without) >
          engine_.CostWithConfig(j, config)) {
        return true;
      }
    }
    return false;
  }

  // -- Committing ------------------------------------------------------------

  /// Commits `move`; an append finishes by letting the morphed index
  /// inherit the replaced index's dense cost row (delta costing — only
  /// re-estimated slots were written before this).
  void Commit(const Move& move) {
    const kernel::IndexArena& arena = engine_.arena();
    const kernel::QueryMasks& qmasks = engine_.query_masks();
    IDXSEL_DCHECK(!move.after.empty());  // MaterializeMove ran
    replaced_ = Index();
    // Maintenance penalties are part of the tracked objective.
    objective_ += engine_.MaintenancePenaltyDense(move.after_id);
    if (move.kind == StepKind::kAppend ||
        move.kind == StepKind::kAppendPair) {
      objective_ -=
          engine_.MaintenancePenaltyDense(selected_ids_[move.selected_pos]);
    }
    if (move.kind == StepKind::kNewSingle ||
        move.kind == StepKind::kNewPair) {
      const size_t pos = selected_.size();
      selected_.push_back(move.after);
      selected_ids_.push_back(move.after_id);
      const auto& posting = w_.queries_with(arena.leading(move.after_id));
      for (uint32_t s = 0; s < posting.size(); ++s) {
        InsertCost(posting[s], pos,
                   engine_.CostWithIndexDense(posting[s], move.after_id, s));
      }
    } else {
      replaced_ = selected_[move.selected_pos];
      const kernel::IndexId replaced_id = selected_ids_[move.selected_pos];
      const uint64_t rmask = arena.mask(replaced_id);
      const uint32_t rwidth = arena.width(replaced_id);
      const workload::AttributeId first_appended =
          arena.attrs(move.after_id)[rwidth];
      const uint64_t abit = kernel::AttrBit(first_appended);
      affected_scratch_.clear();
      // Only queries that fully cover the old index *and* constrain the
      // first appended attribute can change cost; everything else keeps
      // f_j(k_new) == f_j(k_old) (cost-model invariant), so consulting the
      // engine for them would waste what-if calls. One combined mask
      // subset test, 4 masks per step over the posting-order mirror, with
      // tuple confirmation only when masks are lossy.
      const workload::AttributeId rlead = arena.leading(replaced_id);
      const auto& posting = w_.queries_with(rlead);
      if (commit_kept_.size() < posting.size()) {
        commit_kept_.resize(posting.size());
      }
      const size_t kept_n =
          kernel::simd::FilterMasks(qmasks.posting_masks(rlead),
                                    posting.size(), rmask | abit,
                                    commit_kept_.data());
      if (kept_n != posting.size()) {
        kernel_filtered_.fetch_add(posting.size() - kept_n,
                                   std::memory_order_relaxed);
      }
      for (size_t t = 0; t < kept_n; ++t) {
        const workload::QueryId j = posting[commit_kept_[t]];
        if (!qmasks.exact()) {
          const auto& q_attrs = w_.query(j).attributes;
          if (!std::binary_search(q_attrs.begin(), q_attrs.end(),
                                  first_appended) ||
              replaced_.CoverablePrefixLength(q_attrs) != rwidth) {
            continue;
          }
        }
        affected_scratch_.push_back(j);
      }
      selected_[move.selected_pos] = move.after;
      selected_ids_[move.selected_pos] = move.after_id;
      for (workload::QueryId j : affected_scratch_) RecomputeQuery(j);
      // Every query not re-estimated above keeps f_j(k ⊕ a) == f_j(k)
      // (cost-model invariant), so the new row inherits the old one.
      engine_.InheritCostRow(replaced_id, move.after_id);
    }
    used_memory_ += move.memory_delta;
  }

  /// Applicable() on ids: a clear leading bit is a definitive reject; an
  /// exact-mask hit is definitive too (queries only constrain attributes
  /// of their own table, so leading membership implies same-table).
  bool Applicable(workload::QueryId j, kernel::IndexId id) const {
    const kernel::QueryMasks& qmasks = engine_.query_masks();
    const workload::AttributeId lead = engine_.arena().leading(id);
    if (qmasks.DefinitelyAbsent(j, lead)) return false;
    if (qmasks.exact()) return true;
    const auto& q_attrs = w_.query(j).attributes;
    return std::binary_search(q_attrs.begin(), q_attrs.end(), lead);
  }

  /// Recomputes best/second-best/owner for query j from scratch (base cost
  /// plus every applicable selected index); O(|selection|) dense lookups.
  /// Used for queries affected by a replacement.
  void RecomputeQuery(workload::QueryId j) {
    const double old_best = best_cost_[j];
    double b1 = engine_.BaseCost(j);
    double b2 = std::numeric_limits<double>::infinity();
    size_t owner = kNoOwner;
    for (size_t p = 0; p < selected_.size(); ++p) {
      if (!Applicable(j, selected_ids_[p])) continue;
      const double c = engine_.CostWithIndexDenseSlow(j, selected_ids_[p]);
      if (c < b1) {
        b2 = b1;
        b1 = c;
        owner = p;
      } else if (c < b2) {
        b2 = c;
      }
    }
    best_cost_[j] = b1;
    second_cost_[j] = b2;
    best_owner_[j] = owner;
    objective_ += w_.query(j).frequency * (b1 - old_best);
  }

  /// Rebuilds every per-query and objective bookkeeping from selected_.
  void RebuildState() {
    objective_ = 0.0;
    used_memory_ = 0.0;
    for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
      best_cost_[j] = engine_.BaseCost(j);
      second_cost_[j] = std::numeric_limits<double>::infinity();
      best_owner_[j] = kNoOwner;
      objective_ += w_.query(j).frequency * best_cost_[j];
    }
    for (size_t p = 0; p < selected_.size(); ++p) {
      const kernel::IndexId id = selected_ids_[p];
      const auto& posting = w_.queries_with(engine_.arena().leading(id));
      for (uint32_t s = 0; s < posting.size(); ++s) {
        InsertCost(posting[s], p, engine_.CostWithIndexDense(posting[s], id, s));
      }
      objective_ += engine_.MaintenancePenaltyDense(id);
      used_memory_ += engine_.IndexMemoryDense(id);
    }
  }

  /// Post-construction repair (see RecursiveOptions::swap_repair): evict
  /// the least-contributing indexes to afford a high-benefit single that
  /// ran out of budget; commit only exact improvements.
  void SwapRepair(RecursiveResult* result) {
    bool improved = true;
    while (improved && !poller_.Expired()) {
      improved = false;
      // Objective increase if selected index p were removed (its owned
      // queries fall back to their second-best plan), net of its freed
      // maintenance penalty.
      std::vector<double> removal_delta(selected_.size(), 0.0);
      for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
        if (best_owner_[j] == kNoOwner) continue;
        removal_delta[best_owner_[j]] +=
            w_.query(j).frequency * (second_cost_[j] - best_cost_[j]);
      }
      for (size_t p = 0; p < selected_.size(); ++p) {
        removal_delta[p] -= engine_.MaintenancePenalty(selected_[p]);
      }
      std::vector<size_t> eviction_order(selected_.size());
      for (size_t p = 0; p < selected_.size(); ++p) eviction_order[p] = p;
      std::sort(eviction_order.begin(), eviction_order.end(),
                [&](size_t x, size_t y) {
                  return removal_delta[x] < removal_delta[y];
                });

      for (workload::AttributeId i : eligible_singles_) {
        if (poller_.Expired()) return;  // committed swaps already improved
        if (SingleSelected(i)) continue;
        const Index k(i);
        const double gain =
            SingleBenefit(i) - engine_.MaintenancePenalty(k);
        if (gain <= kEps) continue;
        const double need = engine_.IndexMemory(k);
        double available = opts_.budget - used_memory_;
        if (need <= available) continue;  // main loop already rejected it

        // Greedily evict the cheapest-to-lose indexes until k fits.
        std::vector<size_t> evict;
        for (size_t p : eviction_order) {
          if (available >= need) break;
          available += engine_.IndexMemory(selected_[p]);
          evict.push_back(p);
        }
        if (available < need) continue;

        // Exact evaluation of the hypothetical configuration.
        costmodel::IndexConfig hypothetical;
        std::vector<char> evicted(selected_.size(), 0);
        for (size_t p : evict) evicted[p] = 1;
        for (size_t p = 0; p < selected_.size(); ++p) {
          if (!evicted[p]) hypothetical.Insert(selected_[p]);
        }
        hypothetical.Insert(k);
        const double new_objective = engine_.WorkloadCost(hypothetical);
        if (new_objective >= objective_ * (1.0 - 1e-12)) continue;

        ConstructionStep step;
        step.kind = StepKind::kSwap;
        step.after = k;
        step.objective_before = objective_;
        std::vector<Index> evicted_indexes;
        if (journal_) {
          evicted_indexes.reserve(evict.size());
          for (size_t p : evict) evicted_indexes.push_back(selected_[p]);
        }
        selected_.assign(hypothetical.indexes().begin(),
                         hypothetical.indexes().end());
        selected_ids_.clear();
        for (const Index& kept : selected_) {
          selected_ids_.push_back(engine_.InternIndex(kept));
        }
        RebuildState();
        step.objective_after = objective_;
        step.memory_delta = 0.0;  // net change is below the budget anyway
        step.ratio = 0.0;
        result->trace.push_back(step);
        result->frontier.emplace_back(used_memory_, objective_);
        ++swap_steps_;
        if (journal_) {
          EmitSwapRecord(k, evicted_indexes, step.objective_before,
                         step.objective_after);
        }
        improved = true;
        break;  // re-derive eviction order against the new state
      }
    }
  }

  /// Remark 1(2): drops selected indexes no query uses — F is unchanged
  /// and the freed memory allows more steps. One-index evaluation: unused
  /// means no query's current best. Remark-2 evaluation: unused means
  /// removing it raises no query's cost, checked against the selection
  /// left after the drops so far.
  void PruneUnused(RecursiveResult* result) {
    std::vector<char> used(selected_.size(), 0);
    if (!opts_.multi_index_eval) {
      for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
        if (best_owner_[j] != kNoOwner) used[best_owner_[j]] = 1;
      }
    }
    bool any_dropped = false;
    for (size_t p = selected_.size(); p-- > 0;) {
      if (opts_.multi_index_eval ? UsedMulti(p) : used[p] != 0) continue;
      any_dropped = true;
      ConstructionStep step;
      step.kind = StepKind::kPrune;
      step.before = selected_[p];
      step.objective_before = objective_;
      // Dropping an unused index also sheds its maintenance penalty.
      objective_ -= engine_.MaintenancePenalty(selected_[p]);
      step.objective_after = objective_;
      step.memory_delta = -engine_.IndexMemory(selected_[p]);
      result->trace.push_back(step);
      ++prune_steps_;
      used_memory_ -= engine_.IndexMemory(selected_[p]);
      if (journal_) {
        EmitPruneRecord(selected_[p], step.objective_before,
                        step.objective_after, step.memory_delta);
      }
      selected_.erase(selected_.begin() + static_cast<long>(p));
      selected_ids_.erase(selected_ids_.begin() + static_cast<long>(p));
    }
    // Positions shifted: rebuild the per-query owner bookkeeping (Remark-2
    // runs keep no owners, and their costs did not change).
    if (any_dropped && !opts_.multi_index_eval) {
      for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
        RecomputeQuery(j);
      }
    }
  }

  WhatIfEngine& engine_;
  const workload::Workload& w_;
  const RecursiveOptions& opts_;
  // Amortized view of opts_.deadline, shared by every poll site — and by
  // every parallel lane — so the latched expiry is visible across
  // evaluation/repair phases and across threads.
  exec::SharedDeadlinePoller poller_;
  size_t threads_;
  // Private pool (threads_ - 1 workers; the evaluating thread participates
  // in every ParallelFor). Per-runner so concurrently racing strategies
  // (advisor portfolio mode) and tests each get exactly the lane count
  // they asked for.
  std::optional<exec::ThreadPool> pool_;

  std::vector<Index> selected_;
  // Per query: cheapest cost over {f_j(0)} + selected indexes, the position
  // of the selected index attaining it (kNoOwner = base cost), and the
  // second-cheapest — giving O(1) CostWithout().
  std::vector<double> best_cost_;
  std::vector<double> second_cost_;
  std::vector<size_t> best_owner_;
  std::vector<workload::AttributeId> eligible_singles_;
  std::vector<uint32_t> commit_kept_;  ///< Commit filter scratch
  std::vector<std::vector<double>> single_costs_;  ///< posting-order SoA
  std::vector<char> single_costs_ready_;
  /// b_j per query, flat — the gather table of the simd reductions
  /// (workload::Query::frequency sits inside an AoS Query record).
  std::vector<double> freq_;
  std::vector<workload::QueryId> affected_scratch_;
  // Move buffers of EvaluateUnits, members so steady-state rounds reuse
  // their capacity instead of reallocating per round.
  std::vector<Move> serial_moves_;
  std::vector<std::vector<Move>> unit_buffers_;
  std::vector<kernel::IndexId> selected_ids_;  ///< Parallel to selected_.
  std::vector<kernel::IndexId> single_ids_;    ///< Per attribute: id of {i}.
  /// Mask-filtered query count; atomic because parallel evaluation units
  /// flush their per-unit tallies concurrently. Published to
  /// idxsel.kernel.filtered_queries in the end-of-run batch.
  std::atomic<uint64_t> kernel_filtered_{0};
  double objective_ = 0.0;
  double used_memory_ = 0.0;
  Index replaced_;

  // Journal state; only touched at serial points and only while a sink was
  // installed when the run began (see Run()).
  bool journal_ = false;
  const char* stop_reason_ = "max-steps";
  std::vector<RejectedMove> round_rejects_;
  uint64_t round_evals_ = 0;
  uint64_t round_no_benefit_ = 0;
  uint64_t round_budget_exceeded_ = 0;
  uint64_t round_sanitized_ = 0;

  // Run telemetry, published to obs::Registry in one batch (see Run()).
  uint64_t committed_rounds_ = 0;
  uint64_t create_steps_ = 0;
  uint64_t append_steps_ = 0;
  uint64_t prune_steps_ = 0;
  uint64_t swap_steps_ = 0;
  uint64_t candidate_evals_ = 0;
  uint64_t ratio_ties_ = 0;
};

}  // namespace

RecursiveResult SelectRecursive(WhatIfEngine& engine,
                                const RecursiveOptions& options) {
  Runner runner(engine, options);
  return runner.Run();
}

}  // namespace idxsel::core
