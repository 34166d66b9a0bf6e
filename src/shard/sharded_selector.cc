#include "shard/sharded_selector.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/float_cmp.h"
#include "common/telemetry.h"

namespace idxsel::shard {

using costmodel::Index;
using costmodel::IndexConfig;

namespace {

/// H6's budget tolerance (core/recursive_selector.cc). The arbiter's fit
/// check must be the SAME predicate on the SAME `used` value the global
/// run would hold, or knife-edge moves would flip between the two paths.
constexpr double kEps = 1e-9;

}  // namespace

// ---------------------------------------------------------------------------
// Per-shard state.
// ---------------------------------------------------------------------------

struct ShardedSelector::ShardState {
  std::unique_ptr<ShardViewBackend> view;
  /// Optional decorator from ShardedOptions::wrap_backend (chaos tests).
  std::unique_ptr<costmodel::WhatIfBackend> wrapped;
  std::unique_ptr<costmodel::WhatIfEngine> engine;

  bool dirty = false;

  /// Backend calls of engines this state already discarded (rebuilds).
  uint64_t calls_retired = 0;

  uint64_t calls_total() const {
    return calls_retired + (engine ? engine->stats().calls : 0);
  }
};

// ---------------------------------------------------------------------------
// Construction / rebuild.
// ---------------------------------------------------------------------------

ShardedSelector::ShardedSelector(costmodel::WhatIfEngine& engine,
                                 const ShardedOptions& options)
    : engine_(engine), options_(options) {
  // PartitionByTable already built every shard's view; only the backends
  // and engines over them remain.
  set_ = PartitionByTable(engine_.workload(), options_.shards,
                          options_.compression);
  states_.reserve(set_.shards.size());
  for (size_t s = 0; s < set_.shards.size(); ++s) {
    states_.push_back(std::make_unique<ShardState>());
    AttachEngine(s);
  }
}

ShardedSelector::~ShardedSelector() = default;

void ShardedSelector::AttachEngine(size_t s) {
  ShardState& st = *states_[s];
  // The slot address is stable (the shard vector is never resized), so
  // borrowing &set_.shards[s] is safe.
  st.view = std::make_unique<ShardViewBackend>(&set_.shards[s],
                                               &engine_.backend());
  costmodel::WhatIfBackend* backend = st.view.get();
  if (options_.wrap_backend) {
    st.wrapped = options_.wrap_backend(s, *st.view);
    if (st.wrapped) backend = st.wrapped.get();
  }
  st.engine = std::make_unique<costmodel::WhatIfEngine>(&set_.shards[s].local,
                                                        backend);
  st.dirty = false;
}

void ShardedSelector::RebuildShard(size_t s) {
  ShardState& st = *states_[s];
  if (st.engine) st.calls_retired += st.engine->stats().calls;
  st.engine.reset();
  st.wrapped.reset();
  st.view.reset();
  // Rebuild the local view from the LIVE workload (frequencies may have
  // shifted); the table list — and hence the partition — never changes
  // for the lifetime of the selector.
  std::vector<workload::TableId> tables = set_.shards[s].tables;
  set_.shards[s] = BuildShardWorkload(engine_.workload(), std::move(tables),
                                      options_.compression);
  AttachEngine(s);
}

void ShardedSelector::MarkDirty(workload::TableId table) {
  if (table >= set_.table_shard.size()) return;
  const uint32_t s = set_.table_shard[table];
  if (s == ShardSet::kNoShard) return;
  states_[s]->dirty = true;
}

// ---------------------------------------------------------------------------
// The arbiter.
// ---------------------------------------------------------------------------

namespace {

/// Global-tuple tie-break matching H6's MoveBetter: ratio first (bitwise
/// compare), then lexicographic order of the resulting index. Within one
/// shard the local run already broke ties with the local tuple order,
/// which the order-preserving local->global attribute map makes identical
/// to the global order; across shards the arbiter compares global tuples
/// — together exactly the unsharded comparator.
bool StepBetter(const core::ConstructionStep& a, const Index& a_global,
                const core::ConstructionStep& b, const Index& b_global) {
  if (!ExactlyEqual(a.ratio, b.ratio)) return a.ratio > b.ratio;
  return a_global < b_global;
}

void EmitShardCommit(uint64_t round, const std::string& winner, double ratio,
                     double objective_before, double objective_after,
                     double memory_after) {
  telemetry::JournalEvent event;
  event.strategy = "shard";
  event.action = "commit";
  event.round = round;
  event.winner = winner.c_str();
  event.winner_ratio = ratio;
  // No margin, no candidate list: both would leak how proposals were
  // grouped into shards. Every field below is a function of the committed
  // move sequence only — byte-identical at any shard count.
  event.objective_before = objective_before;
  event.objective_after = objective_after;
  event.memory_after = memory_after;
  telemetry::EmitJournal(event);
}

void EmitShardStop(uint64_t round, double objective, double memory,
                   const char* note) {
  telemetry::JournalEvent event;
  event.strategy = "shard";
  event.action = "stop";
  event.round = round;
  event.objective_after = objective;
  event.memory_after = memory;
  event.note = note;
  telemetry::EmitJournal(event);
}

}  // namespace

ShardedResult ShardedSelector::Select(double budget, double cost_before,
                                      const rt::Deadline& deadline) {
  const size_t num_shards = states_.size();
  ShardedResult out;
  out.stats.shards_used = num_shards;
  telemetry::Add(telemetry::Slot::kShardSelections);
  telemetry::Add(telemetry::Slot::kShardShards,
                 static_cast<int64_t>(num_shards));
  const bool journal = telemetry::JournalActive();
  if (num_shards == 0) {
    out.objective = cost_before;
    if (journal) EmitShardStop(0, out.objective, 0.0, "no-eligible-move");
    return out;
  }

  for (size_t s = 0; s < num_shards; ++s) {
    if (states_[s]->dirty) {
      RebuildShard(s);
      telemetry::Add(telemetry::Slot::kShardDirtyRebuilds);
    }
  }

  std::vector<uint64_t> calls_before(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    calls_before[s] = states_[s]->calls_total();
    out.stats.queries_full += set_.shards[s].source_queries;
    out.stats.queries_compressed += set_.shards[s].local.num_queries();
  }

  // One live H6 session per shard for this Select. The arbiter steps it —
  // Propose, then Commit — so each shard evaluates its round c+1 exactly
  // once, after its step c commits. A proposal is cached until its shard
  // commits or its budget is clamped; a clamp only re-folds the shard's
  // cached moves.
  core::RecursiveOptions ropts;
  ropts.min_ratio = options_.min_ratio;
  ropts.max_index_width = options_.max_index_width;
  ropts.deadline = deadline;
  std::vector<std::unique_ptr<core::RecursiveSession>> sessions(num_shards);
  std::vector<const core::ConstructionStep*> proposal(num_shards, nullptr);
  std::vector<Index> proposal_global(num_shards);  // `after`, global ids
  std::vector<char> proposal_fresh(num_shards, 0);
  std::vector<double> shard_budget(num_shards, budget);
  const auto propose = [&](size_t s) {
    proposal[s] = sessions[s]->Propose(shard_budget[s]);
    if (proposal[s] != nullptr) {
      proposal_global[s] = states_[s]->view->ToGlobal(proposal[s]->after);
    }
    proposal_fresh[s] = 1;
  };

  // Setup and first proposals, shard by shard. Inner H6 journals are
  // muted: the arbiter steps the shards in its own interleaved order, so
  // raw records would not read as one H6 run; it emits the canonical
  // records instead. Each session samples the journal gate once, here.
  {
    telemetry::ScopedJournalSuppress mute;
    for (size_t s = 0; s < num_shards; ++s) {
      sessions[s] =
          std::make_unique<core::RecursiveSession>(*states_[s]->engine, ropts);
      propose(s);
    }
  }

  // -- Global mirror of the unsharded run's bookkeeping ---------------------
  // The arbiter replays each committed move's per-query cost updates
  // against its own accumulator, in global commit order, pulling every
  // value from the winning shard's warm engine cache. Starting from the
  // baseline below (the exact FP sum Runner::Run computes), the mirror's
  // objective/used trajectory is bit-identical to the unsharded run's —
  // which makes the trace, the frontier, and the journal records
  // shard-count-invariant, and makes the arbiter's budget check the exact
  // global H6 predicate.
  //
  // Mirror queries are addressed as (shard, local id); the baseline sums
  // in ascending *global representative id* order, which without
  // compression is exactly the unsharded init loop's ascending-j order.
  std::vector<std::vector<double>> best_cost(num_shards);
  std::vector<std::vector<Index>> selected(num_shards);
  std::vector<std::pair<workload::QueryId, uint32_t>> base_order;
  base_order.reserve(engine_.workload().num_queries());
  for (size_t s = 0; s < num_shards; ++s) {
    const ShardWorkload& view = set_.shards[s];
    best_cost[s].resize(view.local.num_queries());
    for (workload::QueryId j = 0; j < view.local.num_queries(); ++j) {
      base_order.emplace_back(view.query_to_global[j],
                              static_cast<uint32_t>(s));
    }
  }
  std::sort(base_order.begin(), base_order.end());
  std::vector<size_t> base_cursor(num_shards, 0);
  double objective = 0.0;
  for (const auto& [global_id, s] : base_order) {
    (void)global_id;
    const workload::QueryId j =
        static_cast<workload::QueryId>(base_cursor[s]++);
    const double base = states_[s]->engine->BaseCost(j);  // cache hit
    best_cost[s][j] = base;
    objective += set_.shards[s].local.query(j).frequency * base;
  }
  double used = 0.0;

  std::vector<double> committed(num_shards, 0.0);
  std::vector<char> done(num_shards, 0);
  uint64_t rounds = 0;
  const char* stop_note = "no-eligible-move";
  bool timed_out = false;

  while (out.trace.size() < options_.max_steps) {
    if (deadline.expired()) {
      timed_out = true;
      break;
    }

    // Collect the next-move proposal of every live shard. A proposal
    // computed under a generous budget b >= committed[s] + remaining is
    // the true next move whenever its delta fits `remaining`: shrinking
    // the budget only rejects moves, and a winner that survives the extra
    // rejections is still the winner. On a misfit the shard's budget is
    // clamped to the exact marginal budget and its cached round re-folded
    // — the fresh proposal, filtered by the session's own budget check,
    // always fits. doc/sharding.md §arbiter.
    size_t best_s = num_shards;
    const core::ConstructionStep* best_step = nullptr;
    for (size_t s = 0; s < num_shards && !timed_out; ++s) {
      if (done[s]) continue;
      const core::ConstructionStep* fit = nullptr;
      for (;;) {
        if (!proposal_fresh[s]) propose(s);
        if (sessions[s]->timed_out()) {
          timed_out = true;
          break;
        }
        if (proposal[s] == nullptr) {
          // Exhausted under a budget >= the true marginal budget; since
          // `remaining` only shrinks, this shard is finished for good.
          done[s] = 1;
          break;
        }
        // H6's budget check, on the global `used`.
        if (used + proposal[s]->memory_delta <= budget + kEps) {
          fit = proposal[s];
          break;
        }
        const double clamped = committed[s] + (budget - used);
        if (ExactlyEqual(clamped, shard_budget[s])) {
          // Unreachable: a proposal at the exact marginal budget always
          // fits (the session's check is the arbiter's, shifted by
          // committed[s]). Defensive stop rather than a spin.
          done[s] = 1;
          break;
        }
        shard_budget[s] = clamped;
        proposal_fresh[s] = 0;
        ++out.stats.reruns;
      }
      if (fit == nullptr) continue;
      if (best_step == nullptr ||
          StepBetter(*fit, proposal_global[s], *best_step,
                     proposal_global[best_s])) {
        best_s = s;
        best_step = fit;
      }
    }
    if (timed_out) break;
    if (best_step == nullptr) break;  // every shard done

    // -- Commit: mirror core::Runner::Commit for the winning move -----------
    ShardState& st = *states_[best_s];
    const ShardWorkload& view = set_.shards[best_s];
    const workload::Workload& local = view.local;
    costmodel::WhatIfEngine& eng = *st.engine;
    std::vector<double>& best = best_cost[best_s];
    std::vector<Index>& sel = selected[best_s];
    const core::ConstructionStep step = *best_step;  // copy: outlives Propose
    IDXSEL_CHECK(step.kind == core::StepKind::kNewSingle ||
                 step.kind == core::StepKind::kAppend);
    // The session commits first, so the mirror below reads the costs the
    // shard's own bookkeeping just read — warm, in the same order.
    sessions[best_s]->Commit();
    proposal_fresh[best_s] = 0;

    const double objective_before = objective;
    objective += eng.MaintenancePenalty(step.after);
    if (step.kind == core::StepKind::kAppend) {
      objective -= eng.MaintenancePenalty(step.before);
    }
    if (step.kind == core::StepKind::kNewSingle) {
      sel.push_back(step.after);
      for (workload::QueryId j : local.queries_with(step.after.leading())) {
        const double c = eng.CostWithIndex(j, step.after);
        if (c < best[j]) {
          objective -= local.query(j).frequency * (best[j] - c);
          best[j] = c;
        }
      }
    } else {
      auto pos = std::find(sel.begin(), sel.end(), step.before);
      IDXSEL_CHECK(pos != sel.end());
      const workload::AttributeId first_appended =
          step.after.attribute(step.before.width());
      *pos = step.after;
      for (workload::QueryId j : local.queries_with(step.before.leading())) {
        const auto& q_attrs = local.query(j).attributes;
        if (!std::binary_search(q_attrs.begin(), q_attrs.end(),
                                first_appended)) {
          continue;
        }
        if (step.before.CoverablePrefixLength(q_attrs) !=
            step.before.width()) {
          continue;
        }
        // RecomputeQuery: base cost plus every applicable selected index
        // of this shard, in selection order. The unsharded run walks its
        // global selection here, but inapplicable (other-table) entries
        // contribute nothing, and this shard's entries appear in the same
        // relative order — identical arithmetic, identical cache hits.
        const double old_best = best[j];
        double b1 = eng.BaseCost(j);
        for (const Index& k : sel) {
          if (!eng.Applicable(j, k)) continue;
          const double c = eng.CostWithIndex(j, k);
          if (c < b1) b1 = c;
        }
        best[j] = b1;
        objective += local.query(j).frequency * (b1 - old_best);
      }
    }
    used += step.memory_delta;
    committed[best_s] += step.memory_delta;
    ++rounds;

    core::ConstructionStep global_step;
    global_step.kind = step.kind;
    if (step.kind == core::StepKind::kAppend) {
      global_step.before = st.view->ToGlobal(step.before);
    }
    global_step.after = std::move(proposal_global[best_s]);
    global_step.objective_before = objective_before;
    global_step.objective_after = objective;
    global_step.memory_delta = step.memory_delta;
    global_step.ratio = step.ratio;
    if (journal) {
      EmitShardCommit(rounds, global_step.after.ToString(), global_step.ratio,
                      objective_before, objective, used);
    }
    out.trace.push_back(std::move(global_step));
    out.frontier.emplace_back(used, objective);
  }

  if (timed_out) {
    stop_note = "timeout";
    out.status = Status::Timeout("sharded selector: deadline expired");
  } else if (out.trace.size() >= options_.max_steps) {
    stop_note = "max-steps";
  }
  if (journal) EmitShardStop(rounds, objective, used, stop_note);

  std::vector<Index> chosen;
  for (size_t s = 0; s < num_shards; ++s) {
    for (const Index& k : selected[s]) {
      chosen.push_back(states_[s]->view->ToGlobal(k));
    }
    out.whatif_calls += states_[s]->calls_total() - calls_before[s];
    if (!states_[s]->engine->health().ok()) {
      ++out.stats.degraded_shards;
      out.degraded = true;
    }
  }
  out.selection = costmodel::IndexConfig(std::move(chosen));
  out.objective = objective;
  out.memory = used;
  out.stats.shard_runs = num_shards;
  out.stats.arbiter_rounds = rounds;
  telemetry::Add(telemetry::Slot::kShardArbiterRounds,
                 static_cast<int64_t>(rounds));
  telemetry::Add(telemetry::Slot::kShardReruns,
                 static_cast<int64_t>(out.stats.reruns));
  telemetry::Add(
      telemetry::Slot::kShardQueriesCompressed,
      static_cast<int64_t>(out.stats.queries_full -
                           out.stats.queries_compressed));
  return out;
}

ShardedResult SelectSharded(costmodel::WhatIfEngine& engine,
                            const ShardedOptions& options, double budget,
                            double cost_before, const rt::Deadline& deadline) {
  ShardedSelector selector(engine, options);
  return selector.Select(budget, cost_before, deadline);
}

}  // namespace idxsel::shard
