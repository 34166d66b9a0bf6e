#include "core/recursive_selector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "common/check.h"
#include "common/float_cmp.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "exec/shared_deadline.h"
#include "exec/parallel_for.h"
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
/// clearing O(touched) instead of O(num_attributes). One per Runner:
/// append units run one after another, and the epoch isolates them.
struct AppendScratch {
  std::vector<double> benefit;
  std::vector<kernel::IndexId> ext_id;
  std::vector<uint64_t> epoch;
  std::vector<workload::AttributeId> touched;
  uint64_t current = 0;

  // Batched-evaluation state: per-attribute CSR bookkeeping plus the
  // flat per-unit buffers the kernel reductions stream. Capacity persists
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
};

class Runner {
 public:
  Runner(WhatIfEngine& engine, const RecursiveOptions& opts)
      : engine_(engine),
        w_(engine.workload()),
        opts_(opts),
        poller_(opts.deadline),
        multi_lanes_(exec::ResolveThreads(opts.threads)) {}

  /// Algorithm 1 to completion: setup, then one Propose/Commit pair per
  /// construction step — the same loop RecursiveSession steps by hand.
  RecursiveResult Run() {
    obs::Span run_span("selector", "h6.run");
    if (!Start()) return Finish();
    while (result_.trace.size() < opts_.max_steps && !poller_.Expired()) {
      obs::Span round_span("selector", "h6.round");
      round_span.SetArg("round", static_cast<double>(result_.trace.size()));
      if (!Propose(opts_.budget)) break;
      Commit();
    }
    return Finish();
  }

  /// Setup: base costs, interned singles and the step-2 ranking. False
  /// when the deadline was dead on arrival (the advisor spent it all
  /// upstream); the run then returns the empty, trivially feasible
  /// incumbent without touching the engine.
  bool Start() {
    // Sampled once per run: a sink installed mid-run must not make later
    // rounds journal while earlier ones did not (or vice versa), which
    // would break byte-identity between otherwise identical runs.
    journal_ = telemetry::JournalActive();
    if (opts_.deadline.expired()) {
      dead_on_arrival_ = true;
      return false;
    }

    calls_before_ = engine_.stats().calls;

    best_cost_.resize(w_.num_queries());
    second_cost_.assign(w_.num_queries(),
                        std::numeric_limits<double>::infinity());
    best_owner_.assign(w_.num_queries(), kNoOwner);
    single_costs_.resize(w_.num_attributes());
    single_costs_ready_.assign(w_.num_attributes(), 0);
    single_selected_.assign(w_.num_attributes(), 0);
    attr_marked_.assign(w_.num_attributes(), 0);
    freq_.resize(w_.num_queries());
    for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
      freq_[j] = w_.query(j).frequency;
    }
    // Intern every single-attribute index up front: ids become
    // deterministic, independent of the order the ranking touches them.
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
    single_moves_.resize(eligible_singles_.size());
    single_has_move_.assign(eligible_singles_.size(), 0);
    return true;
  }

  /// Folds the next round's moves under `budget` into best_/runner_up_;
  /// true iff a move qualifies for commit. The first call after a commit
  /// evaluates the round (re-evaluating only the units the commit made
  /// stale); further calls — a shard arbiter clamping the budget — only
  /// re-fold the cached moves, because the budget acts solely as a filter
  /// in Consider. False on deadline expiry too (see expired()).
  bool Propose(double budget) {
    if (!round_ready_) {
      EvaluateRound();
      round_ready_ = true;
    }
    // A round cut short by the deadline saw only a prefix of the moves;
    // committing its "best" would bias construction toward whatever the
    // enumeration happened to visit first. Keep the pre-round incumbent.
    if (poller_.expired()) return false;
    FoldRound(budget);
    if (!best_.valid || best_.ratio <= opts_.min_ratio) {
      stop_reason_ = best_.valid ? "min-ratio" : "no-eligible-move";
      return false;
    }
    return true;
  }

  /// Commits the move the last successful Propose folded.
  void Commit() {
    IDXSEL_CHECK(round_ready_ && best_.valid);
    // Candidates travel as interned ids; the one committed (and the
    // traced runner-up) are the only ones ever materialized.
    MaterializeMove(&best_);
    MaterializeMove(&runner_up_);
    ++committed_rounds_;
    if (best_.kind == StepKind::kAppend ||
        best_.kind == StepKind::kAppendPair) {
      ++append_steps_;
    } else {
      ++create_steps_;
    }

    const double objective_before = objective_ + ReconfigTotal();
    if (opts_.multi_index_eval) {
      CommitMulti(best_);
    } else {
      CommitMove(best_);
    }
    const double objective_after = objective_ + ReconfigTotal();

    // End-of-round is the auditor's quiescent point: every evaluation has
    // finished and the commit's dense-row inheritance is complete, so
    // dense tables and hashed caches must agree exactly here. Debug
    // builds and the sanitizer CI leg (IDXSEL_AUDIT=1 env) run this.
    if (audit::Enabled()) {
      const audit::InvariantAuditor auditor(&engine_);
      audit::InvariantAuditor::CheckClean(auditor.AuditAll());
    }

    if (journal_) {
      EmitCommitRecord(best_, runner_up_, objective_before, objective_after);
      // A max-steps exit skips the next round's reset; clear here so the
      // stop record never re-lists rejects the commit already carries.
      ResetRoundLog();
    }

    ConstructionStep step;
    step.kind = best_.kind;
    if (best_.kind == StepKind::kAppend ||
        best_.kind == StepKind::kAppendPair) {
      step.before = replaced_;
    }
    step.after = best_.after;
    step.objective_before = objective_before;
    step.objective_after = objective_after;
    step.memory_delta = best_.memory_delta;
    step.ratio = best_.ratio;
    result_.trace.push_back(step);
    if (runner_up_.valid) {
      ConstructionStep alt;
      alt.kind = runner_up_.kind;
      alt.after = runner_up_.after;
      alt.memory_delta = runner_up_.memory_delta;
      alt.ratio = runner_up_.ratio;
      result_.runners_up.push_back(alt);
    }
    if (opts_.prune_unused) PruneUnused(&result_);
    result_.frontier.emplace_back(used_memory_, objective_);
    round_ready_ = false;
  }

  /// The move the last successful Propose folded, as a trace step (kind,
  /// before, after, memory delta, ratio; no objectives yet).
  ConstructionStep Proposal() {
    MaterializeMove(&best_);
    ConstructionStep step;
    step.kind = best_.kind;
    if (best_.kind == StepKind::kAppend ||
        best_.kind == StepKind::kAppendPair) {
      step.before = selected_[best_.selected_pos];
    }
    step.after = best_.after;
    step.memory_delta = best_.memory_delta;
    step.ratio = best_.ratio;
    return step;
  }

  bool expired() const { return dead_on_arrival_ || poller_.expired(); }

  /// Stop record, repair pass and the result; publishes the run's metrics.
  RecursiveResult Finish() {
    if (dead_on_arrival_) {
      result_.status = Status::Timeout("recursive selector: deadline expired");
      result_.runtime_seconds = watch_.ElapsedSeconds();
      return std::move(result_);
    }
    if (journal_) EmitStopRecord();

    // The repair pass relies on the one-index bookkeeping.
    if (opts_.swap_repair && !opts_.multi_index_eval) SwapRepair(&result_);

    result_.selection = costmodel::IndexConfig(selected_);
    result_.objective = objective_;
    result_.memory = used_memory_;
    result_.runtime_seconds = watch_.ElapsedSeconds();
    result_.whatif_calls = engine_.stats().calls - calls_before_;
    result_.status =
        poller_.expired()
            ? Status::Timeout("recursive selector: deadline expired")
            : Status::Ok();
    PublishMetrics();
    if (obs::Enabled()) {
      SelectorMetrics::Get().run_latency->Record(
          static_cast<uint64_t>(result_.runtime_seconds * 1e9));
    }
    return std::move(result_);
  }

  /// Flushes the run's plain-local tallies to the registry in one batch.
  void PublishMetrics() {
    if (dead_on_arrival_) return;
    const SelectorMetrics& metrics = SelectorMetrics::Get();
    metrics.runs->Add(1);
    metrics.rounds->Add(committed_rounds_);
    metrics.steps_create->Add(create_steps_);
    metrics.steps_append->Add(append_steps_);
    metrics.steps_prune->Add(prune_steps_);
    metrics.steps_swap->Add(swap_steps_);
    metrics.candidate_evals->Add(candidate_evals_);
    metrics.ratio_ties->Add(ratio_ties_);
    metrics.kernel_filtered->Add(kernel_filtered_);
  }

 private:
  // -- Selection journal (decision provenance) -------------------------------
  //
  // Emitted through the telemetry bridge (common/telemetry.h), never
  // through obs directly, and only at serial points — Consider() and the
  // commit block always run on the driving thread, even when Remark-2
  // evaluation fans out, so the journal is byte-identical at any thread
  // count.

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
      MarkQuery(j);
    } else if (c < second_cost_[j]) {
      second_cost_[j] = c;
      MarkQuery(j);
    }
  }

  // -- Move memo --------------------------------------------------------------
  //
  // Every unit's moves are cached across rounds; a round re-evaluates only
  // the units the commits since the last evaluation may have changed. A
  // single {i}'s move reads best_cost_ of the queries holding i, and
  // whether {i} is selected; an append unit's moves read its index and
  // best_cost_ / second_cost_ / best_owner_ (through CostWithout) of the
  // queries holding the index's leading attribute. Hence the rule:
  //   * a changed best/second/owner of query j marks every attribute of
  //     q_j (InsertCost, RecomputeQuery);
  //   * a commit marks the leading attribute of the index it adds or
  //     replaces ({i}'s "selected" status may flip);
  //   * an append commit invalidates its position; a new index adds a
  //     position with no cache;
  //   * prune (positions shift) and swap repair (RebuildState) invalidate
  //     everything.
  // A single is stale iff its attribute is marked; an append unit iff its
  // position was invalidated or its leading attribute is marked.
  // Everything else — maintenance, sizes, ReconfigDelta — depends on ids
  // alone. Pair steps and Remark 2 stay unmemoized.

  void MarkAttribute(workload::AttributeId a) {
    if (attr_marked_[a] == 0) {
      attr_marked_[a] = 1;
      marked_attrs_.push_back(a);
    }
  }

  void MarkQuery(workload::QueryId j) {
    for (workload::AttributeId a : w_.query(j).attributes) MarkAttribute(a);
  }

  void ClearMarks() {
    for (workload::AttributeId a : marked_attrs_) attr_marked_[a] = 0;
    marked_attrs_.clear();
  }

  /// Cached per-attribute f_j({i}) cost arrays, SoA-aligned with the
  /// posting list w_.queries_with(i) (element s belongs to posting[s]);
  /// the engine is consulted once per pair, every later step reads the
  /// flat array — and the benefit reduction streams it in one pass.
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

  /// Keeps single_selected_ in step with a width-1 index entering (`on`)
  /// or leaving the selection.
  void NoteSelected(kernel::IndexId id, bool on) {
    if (engine_.arena().width(id) == 1) {
      single_selected_[engine_.arena().leading(id)] = on ? 1 : 0;
    }
  }

  /// Strict "a beats b" order on candidate moves: ratio, then the
  /// deterministic lexicographic tuple tie-break, compared through the
  /// arena (arena order is plain lexicographic comparison of the tuples,
  /// i.e. Index::operator<).
  bool Beats(double ratio, kernel::IndexId id, const Move& b) const {
    if (!ExactlyEqual(ratio, b.ratio)) return ratio > b.ratio;
    return engine_.arena().Less(id, b.after_id);
  }

  void Consider(const Move& move, double budget) {
    ++candidate_evals_;
    if (journal_) ++round_evals_;
    if (!(move.benefit > kEps) || !(move.memory_delta > 0.0)) {
      // A non-finite memory delta can only come from a sanitized what-if
      // size (WhatIfEngine maps garbage sizes to +infinity); everything
      // else here simply does not improve the objective.
      if (journal_) {
        if (!std::isfinite(move.memory_delta)) {
          LogRejectedMove(move, "sanitized-whatif");
        } else {
          ++round_no_benefit_;
        }
      }
      return;
    }
    if (used_memory_ + move.memory_delta > budget + kEps) {
      if (journal_) {
        const char* reason = std::isfinite(move.memory_delta)
                                 ? "budget-exceeded"
                                 : "sanitized-whatif";
        LogRejectedMove(move, reason);
      }
      return;
    }
    const double ratio = move.benefit / move.memory_delta;
    // A ratio tie means the deterministic tuple ordering — not the step
    // criterion — decides the move; worth counting because ties make the
    // greedy's choice sensitive to index enumeration order.
    if (best_.valid && ExactlyEqual(ratio, best_.ratio)) ++ratio_ties_;
    Move* slot = nullptr;
    if (!best_.valid || Beats(ratio, move.after_id, best_)) {
      if (best_.valid) runner_up_ = best_;
      slot = &best_;
    } else if (!runner_up_.valid || Beats(ratio, move.after_id, runner_up_)) {
      slot = &runner_up_;
    } else {
      return;
    }
    *slot = move;
    slot->ratio = ratio;
    slot->valid = true;
  }

  /// Runs `eval(u)` for every unit u in `units`, in ascending order,
  /// polling the deadline between units. A deadline hit leaves the later
  /// slots stale, and the caller then discards the round (Propose returns
  /// false on expiry).
  template <typename Eval>
  void RunUnits(const std::vector<uint32_t>& units, const Eval& eval) {
    for (uint32_t u : units) {
      if (poller_.Expired()) return;
      eval(u);
    }
  }

  /// Brings every unit's cached moves up to date with the selection the
  /// last commit left. Singles come before appends and appends before
  /// pairs, each group in ascending unit order, so the stale units issue
  /// their backend calls in exactly the order a full evaluation would:
  /// a clean unit already read every cost it needs in an earlier round,
  /// so skipping it skips only cache hits.
  void EvaluateRound() {
    const size_t n = eligible_singles_.size();
    const size_t m = selected_.size();
    if (opts_.multi_index_eval) {
      EvaluateRoundMulti(n, m);
      return;
    }

    stale_units_.clear();
    for (size_t u = 0; u < n; ++u) {
      if (memo_reset_ || attr_marked_[eligible_singles_[u]] != 0) {
        stale_units_.push_back(static_cast<uint32_t>(u));
      }
    }
    RunUnits(stale_units_, [&](size_t u) {
      single_has_move_[u] = EvaluateSingle(u, &single_moves_[u]) ? 1 : 0;
    });
    if (!poller_.expired()) {
      const kernel::IndexArena& arena = engine_.arena();
      stale_units_.clear();
      for (size_t pos = 0; pos < m; ++pos) {
        if (memo_reset_ || append_fresh_[pos] == 0 ||
            attr_marked_[arena.leading(selected_ids_[pos])] != 0) {
          stale_units_.push_back(static_cast<uint32_t>(pos));
        }
      }
      RunUnits(stale_units_, [&](size_t pos) {
        append_moves_[pos].clear();
        EvaluateAppend(pos, &append_moves_[pos], &kernel_filtered_);
      });
      for (uint32_t pos : stale_units_) append_fresh_[pos] = 1;
    }
    ClearMarks();
    // A deadline hit mid-evaluation leaves stale slots behind: trust none.
    memo_reset_ = poller_.expired();
    if (memo_reset_) return;
    if (audit::Enabled()) AuditMemo();

    if (opts_.pair_steps) {
      if (pair_moves_.size() < n + m) pair_moves_.resize(n + m);
      for (size_t u = 0; u < n && !poller_.Expired(); ++u) {
        pair_moves_[u].clear();
        EvaluateNewPairs(u, &pair_moves_[u]);
      }
      for (size_t pos = 0; pos < m && !poller_.Expired(); ++pos) {
        pair_moves_[n + pos].clear();
        EvaluateAppendPairs(pos, &pair_moves_[n + pos]);
      }
    }
  }

  /// A Remark-2 round: every single (units 0..n-1), then every selected
  /// position (units n..n+m-1), against the current configuration. The
  /// one stage that fans out: each move re-costs its queries against a
  /// whole hypothetical configuration, enough work per unit to pay for
  /// starting `multi_lanes_` threads once per round. ParallelFor hands
  /// out one unit per claim, so the append units at the end, which cost
  /// far more than the singles, spread over the lanes. Each unit writes
  /// only its own slot; FoldRound reduces them in unit order afterwards.
  void EvaluateRoundMulti(size_t n, size_t m) {
    const costmodel::IndexConfig current = CurrentConfig();
    exec::ParallelFor(multi_lanes_, n + m, [&](size_t t) {
      if (poller_.Expired()) return;
      if (t < n) {
        single_has_move_[t] =
            EvaluateSingleMulti(t, current, &single_moves_[t]) ? 1 : 0;
      } else {
        append_moves_[t - n].clear();
        EvaluateAppendMulti(t - n, current, &append_moves_[t - n]);
      }
    });
  }

  /// Considers every cached move in unit order — singles, appends, then
  /// pairs — exactly the sequence the unmemoized evaluation produced, so
  /// best/runner-up, FP tie-breaks, candidate_evals and the journal's
  /// round log match at any thread count.
  void FoldRound(double budget) {
    if (journal_) ResetRoundLog();
    best_ = Move();
    runner_up_ = Move();
    for (size_t u = 0; u < single_moves_.size(); ++u) {
      if (single_has_move_[u] != 0) Consider(single_moves_[u], budget);
    }
    for (size_t pos = 0; pos < selected_.size(); ++pos) {
      for (const Move& move : append_moves_[pos]) Consider(move, budget);
    }
    if (opts_.pair_steps && !opts_.multi_index_eval) {
      const size_t units = single_moves_.size() + selected_.size();
      for (size_t u = 0; u < units; ++u) {
        for (const Move& move : pair_moves_[u]) Consider(move, budget);
      }
    }
  }

  static bool SameBits(double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  }

  static bool SameMove(const Move& a, const Move& b) {
    return a.kind == b.kind && a.selected_pos == b.selected_pos &&
           a.after_id == b.after_id && SameBits(a.benefit, b.benefit) &&
           SameBits(a.memory_delta, b.memory_delta);
  }

  /// IDXSEL_AUDIT's check of the memo: re-evaluates every unit into
  /// scratch and requires the cached moves bit for bit (kind, position,
  /// id, benefit, memory delta). Every re-read cost is warm, so the check
  /// issues no backend call, and it never Considers, journals or touches
  /// the filtered-query tally.
  void AuditMemo() {
    audit::AuditReport report;
    const std::string round = std::to_string(committed_rounds_);
    Move scratch;
    for (size_t u = 0; u < eligible_singles_.size(); ++u) {
      const bool has = EvaluateSingle(u, &scratch);
      ++report.slots_checked;
      if (has != (single_has_move_[u] != 0) ||
          (has && !SameMove(scratch, single_moves_[u]))) {
        report.AddViolation("memo: round " + round + ": single {" +
                            std::to_string(eligible_singles_[u]) +
                            "} differs from a fresh evaluation");
      }
    }
    std::vector<Move> fresh;
    for (size_t pos = 0; pos < selected_.size(); ++pos) {
      fresh.clear();
      uint64_t filtered = 0;
      EvaluateAppend(pos, &fresh, &filtered);
      const std::vector<Move>& cached = append_moves_[pos];
      bool same = fresh.size() == cached.size();
      for (size_t e = 0; same && e < fresh.size(); ++e) {
        same = SameMove(fresh[e], cached[e]);
      }
      ++report.slots_checked;
      if (!same) {
        report.AddViolation("memo: round " + round + ": appends of " +
                            selected_[pos].ToString() +
                            " differ from a fresh evaluation");
      }
    }
    audit::InvariantAuditor::CheckClean(report);
  }

  /// Benefit of creating single-attribute index {i} against the current
  /// state: sum_j b_j max(0, best_cost_j - f_j({i})), summed in posting
  /// order (kernel::ReduceBenefitIndexed).
  double SingleBenefit(workload::AttributeId i) {
    const std::vector<double>& costs = SingleCosts(i);
    return kernel::ReduceBenefitIndexed(
        costs.data(), w_.queries_with(i).data(), best_cost_.data(),
        freq_.data(), costs.size());
  }

  /// Step 2's ranking of single-attribute indexes, reused for Remark 1(1).
  /// Deadline expiry truncates the ranking; the main loop then observes the
  /// latched expiry before running a round, so a partial ranking is never
  /// acted on.
  void RankSingles() {
    std::vector<std::pair<double, workload::AttributeId>> ranked;
    ranked.reserve(w_.num_attributes());
    for (workload::AttributeId i = 0; i < w_.num_attributes(); ++i) {
      if (poller_.Expired()) break;
      const double mem = engine_.IndexMemory(Index(i));
      const double ratio = SingleBenefit(i) / std::max(1.0, mem);
      ranked.emplace_back(-ratio, i);
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

  /// Step (3a) for eligible single u: the move creating {i}, or false
  /// when {i} is selected already (I and {i} must be disjoint). Sizes and
  /// maintenance come from the dense id-addressed tables; no Index is
  /// materialized.
  bool EvaluateSingle(size_t u, Move* out) {
    const workload::AttributeId i = eligible_singles_[u];
    if (single_selected_[i] != 0) return false;
    const kernel::IndexId id = single_ids_[i];
    *out = Move();
    out->kind = StepKind::kNewSingle;
    out->after_id = id;
    out->benefit = SingleBenefit(i) -
                   ReconfigDelta(kernel::kInvalidIndexId, id) -
                   engine_.MaintenancePenaltyDense(id);
    out->memory_delta = engine_.IndexMemoryDense(id);
    return true;
  }

  /// Step (3b), batched, for the selected k at `pos`: the extensions k ⊕ a
  /// by attributes a of queries fully covering k, appended to `out`; the
  /// mask filter's rejects are added to `*filtered`. Only those queries can
  /// change cost, and each candidate's benefit sums them in ascending
  /// query order:
  ///
  ///   1. the full-cover test (attrs(k) subset of q_j) streams the query
  ///      masks of the posting-order mirror (kernel::FilterMasks);
  ///      lossy-mask hits are still confirmed on the tuple;
  ///   2. one discovery pass interns extensions in first-touch order and
  ///      lays the affected (slot, query, cost-without) triples out as a
  ///      per-candidate CSR, ascending slots per candidate;
  ///   3. when every candidate row is warm (the steady state: round r-1
  ///      filled them), the warmth probe's gathered costs are accounted
  ///      as hits in one call and each candidate is reduced by
  ///      kernel::ReduceAppendBenefit — zero backend interaction;
  ///   4. ANY cold slot demotes the whole unit to the query-outer loop of
  ///      per-call lookups, so backend calls (and
  ///      rt::FaultInjectingBackend's PRNG stream) keep one fixed order.
  ///      Per-candidate fallback would regroup calls candidate by
  ///      candidate — that is why the demotion is all-or-nothing per unit.
  void EvaluateAppend(size_t pos, std::vector<Move>* out,
                      uint64_t* filtered) {
    const kernel::IndexArena& arena = engine_.arena();
    const kernel::QueryMasks& qmasks = engine_.query_masks();
    const kernel::IndexId kid = selected_ids_[pos];
    const uint32_t kwidth = arena.width(kid);
    if (kwidth >= opts_.max_index_width) return;
    const double base_mem = engine_.IndexMemoryDense(kid);
    const uint64_t kmask = arena.mask(kid);
    AppendScratch& scratch = append_scratch_;
    scratch.Begin(w_.num_attributes());
    const workload::AttributeId lead = arena.leading(kid);
    const auto& posting = w_.queries_with(lead);

    // (1) mask full-cover filter.
    if (scratch.kept.size() < posting.size()) {
      scratch.kept.resize(posting.size());
    }
    const size_t kept_n = kernel::FilterMasks(
        qmasks.posting_masks(lead), posting.size(), kmask,
        scratch.kept.data());
    if (kept_n != posting.size()) {
      *filtered += posting.size() - kept_n;
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

      // (3) warmth peek — raw reads into `batch`, no accounting, so a
      // cold candidate leaves nothing to compensate before the fallback.
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
        // (3a) the peeked costs are the what-if answers: account them as
        // hits in bulk, then reduce per candidate.
        engine_.CountDenseHits(total_pairs);
        for (workload::AttributeId a : scratch.touched) {
          const uint32_t off = scratch.offset[a];
          const uint32_t cnt = scratch.count[a];
          scratch.benefit[a] = kernel::ReduceAppendBenefit(
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
    // One allocation for a position's first move list; re-evaluations
    // reuse its capacity.
    out->reserve(out->size() + scratch.touched.size());
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
      out->push_back(std::move(move));
    }
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
  /// ascending order. This unit: new pairs led by eligible single u.
  void EvaluateNewPairs(size_t u, std::vector<Move>* out) {
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
      out->push_back(std::move(move));
    }
  }

  /// Append pairs k -> k ++ a ++ b of the selected index at `pos`.
  void EvaluateAppendPairs(size_t pos, std::vector<Move>* out) {
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
      out->push_back(std::move(move));
    }
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

  bool EvaluateSingleMulti(size_t u, const costmodel::IndexConfig& current,
                           Move* out) {
    const workload::AttributeId i = eligible_singles_[u];
    if (single_selected_[i] != 0) return false;
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
    *out = Move();
    out->kind = StepKind::kNewSingle;
    out->after_id = id;
    out->benefit = benefit - ReconfigDelta(kernel::kInvalidIndexId, id) -
                   engine_.MaintenancePenalty(k);
    out->memory_delta = engine_.IndexMemory(k);
    return true;
  }

  void EvaluateAppendMulti(size_t pos, const costmodel::IndexConfig& current,
                           std::vector<Move>* out) {
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
      out->push_back(std::move(move));
    }
  }

  void CommitMulti(const Move& move) {
    replaced_ = Index();
    objective_ += engine_.MaintenancePenalty(move.after);
    if (move.kind == StepKind::kAppend || move.kind == StepKind::kAppendPair) {
      objective_ -= engine_.MaintenancePenalty(selected_[move.selected_pos]);
    }
    if (move.kind == StepKind::kNewSingle || move.kind == StepKind::kNewPair) {
      AddPosition(move.after, move.after_id);
    } else {
      replaced_ = selected_[move.selected_pos];
      ReplacePosition(move.selected_pos, move.after, move.after_id);
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

  /// Appends a selected index: a new position, with no cached moves.
  void AddPosition(const Index& k, kernel::IndexId id) {
    selected_.push_back(k);
    selected_ids_.push_back(id);
    append_moves_.emplace_back();
    append_fresh_.push_back(0);
    NoteSelected(id, true);
    MarkAttribute(engine_.arena().leading(id));
  }

  /// Replaces the index at `pos` (an append step) and invalidates the
  /// position's cached moves.
  void ReplacePosition(size_t pos, const Index& k, kernel::IndexId id) {
    NoteSelected(selected_ids_[pos], false);
    selected_[pos] = k;
    selected_ids_[pos] = id;
    append_fresh_[pos] = 0;
    NoteSelected(id, true);
    MarkAttribute(engine_.arena().leading(id));
  }

  /// Commits `move`; an append finishes by letting the morphed index
  /// inherit the replaced index's dense cost row (delta costing — only
  /// re-estimated slots were written before this).
  void CommitMove(const Move& move) {
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
      AddPosition(move.after, move.after_id);
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
      // subset test over the posting-order mirror, with tuple
      // confirmation only when masks are lossy.
      const workload::AttributeId rlead = arena.leading(replaced_id);
      const auto& posting = w_.queries_with(rlead);
      if (commit_kept_.size() < posting.size()) {
        commit_kept_.resize(posting.size());
      }
      const size_t kept_n =
          kernel::FilterMasks(qmasks.posting_masks(rlead), posting.size(),
                              rmask | abit, commit_kept_.data());
      kernel_filtered_ += posting.size() - kept_n;
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
      ReplacePosition(move.selected_pos, move.after, move.after_id);
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
    const double old_second = second_cost_[j];
    const size_t old_owner = best_owner_[j];
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
    if (!ExactlyEqual(b1, old_best) || !ExactlyEqual(b2, old_second) ||
        owner != old_owner) {
      MarkQuery(j);
    }
  }

  /// Rebuilds every per-query and objective bookkeeping from selected_,
  /// and drops every cached move.
  void RebuildState() {
    objective_ = 0.0;
    used_memory_ = 0.0;
    memo_reset_ = true;
    append_moves_.resize(selected_.size());
    append_fresh_.assign(selected_.size(), 0);
    single_selected_.assign(w_.num_attributes(), 0);
    for (kernel::IndexId id : selected_ids_) NoteSelected(id, true);
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
        if (single_selected_[i] != 0) continue;
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
      NoteSelected(selected_ids_[p], false);
      selected_.erase(selected_.begin() + static_cast<long>(p));
      selected_ids_.erase(selected_ids_.begin() + static_cast<long>(p));
      append_moves_.erase(append_moves_.begin() + static_cast<long>(p));
      append_fresh_.erase(append_fresh_.begin() + static_cast<long>(p));
    }
    // Positions shifted: every cached move is suspect, and the per-query
    // owner bookkeeping is rebuilt (Remark-2 runs keep no owners, and
    // their costs did not change).
    if (any_dropped) memo_reset_ = true;
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
  // the Remark-2 lanes — so the latched expiry is visible across
  // evaluation/repair phases and across threads.
  exec::SharedDeadlinePoller poller_;
  size_t multi_lanes_;  ///< Remark-2 evaluation lanes (opts.threads)
  AppendScratch append_scratch_;  ///< EvaluateAppend's unit scratch

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
  /// b_j per query, flat — the lookup table of the kernel reductions
  /// (workload::Query::frequency sits inside an AoS Query record).
  std::vector<double> freq_;
  std::vector<workload::QueryId> affected_scratch_;
  std::vector<kernel::IndexId> selected_ids_;  ///< Parallel to selected_.
  std::vector<kernel::IndexId> single_ids_;    ///< Per attribute: id of {i}.
  /// Per attribute: {i} is selected — step (3a)'s disjointness test in
  /// O(1) instead of a scan of the selection.
  std::vector<char> single_selected_;

  // The move memo (see "Move memo" above). Slots are written by their own
  // unit only, so the Remark-2 lanes never share one.
  std::vector<Move> single_moves_;     ///< Per eligible single: its move.
  std::vector<char> single_has_move_;  ///< ... or none ({i} selected).
  std::vector<std::vector<Move>> append_moves_;  ///< Parallel to selected_.
  std::vector<char> append_fresh_;     ///< Parallel to selected_.
  std::vector<std::vector<Move>> pair_moves_;  ///< Unmemoized, per round.
  std::vector<char> attr_marked_;      ///< Per attribute: marked stale.
  std::vector<workload::AttributeId> marked_attrs_;
  std::vector<uint32_t> stale_units_;  ///< EvaluateRound scratch
  bool memo_reset_ = true;  ///< Every unit stale (first round, prune, swap).
  bool round_ready_ = false;  ///< The next round's moves are cached.
  Move best_;        ///< Best move of the last fold.
  Move runner_up_;   ///< Its runner-up (Remark 1(3)).
  RecursiveResult result_;
  Stopwatch watch_;
  uint64_t calls_before_ = 0;
  bool dead_on_arrival_ = false;
  /// Mask-filtered query count, published to
  /// idxsel.kernel.filtered_queries in the end-of-run batch.
  uint64_t kernel_filtered_ = 0;
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

struct RecursiveSession::Impl {
  Impl(WhatIfEngine& engine, const RecursiveOptions& opts)
      : options(opts), runner(engine, options) {}
  RecursiveOptions options;  // the runner borrows it
  Runner runner;
  ConstructionStep proposal;
  bool started = false;
};

RecursiveSession::RecursiveSession(WhatIfEngine& engine,
                                   const RecursiveOptions& options)
    : impl_(std::make_unique<Impl>(engine, options)) {
  impl_->started = impl_->runner.Start();
}

RecursiveSession::~RecursiveSession() { impl_->runner.PublishMetrics(); }

const ConstructionStep* RecursiveSession::Propose(double budget) {
  if (!impl_->started || impl_->runner.expired()) return nullptr;
  if (!impl_->runner.Propose(budget)) return nullptr;
  impl_->proposal = impl_->runner.Proposal();
  return &impl_->proposal;
}

void RecursiveSession::Commit() { impl_->runner.Commit(); }

bool RecursiveSession::timed_out() const { return impl_->runner.expired(); }

}  // namespace idxsel::core
