#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "candidates/candidates.h"
#include "common/float_cmp.h"
#include "common/format.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "cophy/cophy.h"
#include "costmodel/ddl.h"
#include "exec/parallel_for.h"
#include "obs/obs.h"
#include "selection/heuristics.h"

namespace idxsel::advisor {
namespace {

bool NeedsCandidates(StrategyKind kind) {
  return kind != StrategyKind::kRecursive;
}

/// True iff `recursive` is plain Algorithm 1 — the configuration whose
/// per-table decomposition the sharded path reproduces exactly. Every
/// Remark-1/2 extension either couples tables through non-move state
/// (swap_repair, existing/reconfiguration), changes the candidate set
/// globally (n_best_singles), or re-evaluates across the whole selection
/// (multi_index_eval) — those run unsharded.
bool PlainRecursive(const core::RecursiveOptions& recursive) {
  return !recursive.prune_unused && !recursive.pair_steps &&
         !recursive.swap_repair && !recursive.multi_index_eval &&
         recursive.n_best_singles == std::numeric_limits<size_t>::max() &&
         recursive.existing == nullptr && recursive.reconfiguration == nullptr;
}

size_t QueryBearingTables(const workload::Workload& w) {
  std::vector<char> has_queries(w.num_tables(), 0);
  for (const workload::Query& q : w.queries()) has_queries[q.table] = 1;
  size_t n = 0;
  for (char h : has_queries) n += h != 0;
  return n;
}

}  // namespace

size_t ResolveShardCount(const AdvisorOptions& options,
                         const workload::Workload& w) {
  if (options.strategy != StrategyKind::kRecursive ||
      !options.portfolio.empty() || !PlainRecursive(options.recursive)) {
    return 0;
  }
  const size_t query_bearing = QueryBearingTables(w);
  if (query_bearing == 0) return 0;
  if (options.shards != 0) return std::min(options.shards, query_bearing);
  if (query_bearing >= options.shard_auto_min_tables) {
    return std::min<size_t>(64, query_bearing);
  }
  return 0;
}

namespace {

/// What one strategy lane produced. `hard_error` marks a failure that is
/// neither a clean finish nor an anytime timeout (e.g. solver breakdown):
/// in single-strategy mode it may surface as Recommend()'s error; in a
/// portfolio race the lane simply cannot win.
struct StrategyOutcome {
  IndexConfig selection;
  Status status;
  std::vector<core::ConstructionStep> trace;
  bool hard_error = false;
  /// Strategy-private engines saw backend garbage (sharded path: the
  /// global engine's health cannot see shard-engine sanitization).
  bool degraded = false;
  /// Backend calls issued by strategy-private engines (sharded path);
  /// the global engine's own counter misses them.
  uint64_t extra_whatif_calls = 0;
};

/// Runs one strategy to completion. Thread-safe: WhatIfEngine is
/// concurrency-safe and each lane owns its outcome; `candidate_set` is
/// shared read-only. `shard_count` > 0 routes a kRecursive lane through
/// idxsel::shard (single-lane mode only — Recommend() resolves it to 0
/// for portfolio races); `cost_before` is F(empty), which the sharded
/// arbiter reuses as its objective baseline for degenerate shardings.
StrategyOutcome RunStrategy(WhatIfEngine& engine, StrategyKind kind,
                            const AdvisorOptions& options, double budget,
                            const candidates::CandidateSet& candidate_set,
                            const rt::Deadline& deadline,
                            bool advisor_bounded, size_t threads,
                            size_t shard_count, double cost_before) {
  StrategyOutcome out;
  switch (kind) {
    case StrategyKind::kRecursive: {
      if (shard_count > 0) {
        const rt::Deadline& effective =
            advisor_bounded ? deadline : options.recursive.deadline;
        shard::ShardedResult result;
        if (options.shard_session != nullptr) {
          result = options.shard_session->Select(budget, cost_before,
                                                 effective);
        } else {
          shard::ShardedOptions sharded;
          sharded.shards = shard_count;
          sharded.max_steps = options.recursive.max_steps;
          sharded.min_ratio = options.recursive.min_ratio;
          sharded.max_index_width = options.recursive.max_index_width;
          sharded.compression = options.shard_compression;
          result = shard::SelectSharded(engine, sharded, budget, cost_before,
                                        effective);
        }
        out.selection = std::move(result.selection);
        out.trace = std::move(result.trace);
        out.status = std::move(result.status);
        out.degraded = result.degraded;
        out.extra_whatif_calls = result.whatif_calls;
        break;
      }
      core::RecursiveOptions recursive = options.recursive;
      recursive.budget = budget;
      recursive.threads = threads;
      if (advisor_bounded) recursive.deadline = deadline;
      core::RecursiveResult result = core::SelectRecursive(engine, recursive);
      out.selection = std::move(result.selection);
      out.trace = std::move(result.trace);
      out.status = std::move(result.status);
      break;
    }
    case StrategyKind::kH1:
    case StrategyKind::kH2:
    case StrategyKind::kH3: {
      const selection::RuleHeuristic rule =
          kind == StrategyKind::kH1
              ? selection::RuleHeuristic::kH1
              : (kind == StrategyKind::kH2 ? selection::RuleHeuristic::kH2
                                           : selection::RuleHeuristic::kH3);
      selection::SelectionResult result = selection::SelectRuleBased(
          engine, candidate_set, budget, rule, deadline);
      out.selection = std::move(result.selection);
      out.status = std::move(result.status);
      break;
    }
    case StrategyKind::kH4:
    case StrategyKind::kH4Skyline: {
      selection::SelectionResult result = selection::SelectByBenefit(
          engine, candidate_set, budget,
          kind == StrategyKind::kH4Skyline, deadline);
      out.selection = std::move(result.selection);
      out.status = std::move(result.status);
      break;
    }
    case StrategyKind::kH5: {
      selection::SelectionResult result = selection::SelectByBenefitPerSize(
          engine, candidate_set, budget, deadline);
      out.selection = std::move(result.selection);
      out.status = std::move(result.status);
      break;
    }
    case StrategyKind::kCophy: {
      mip::SolveOptions solver = options.solver;
      solver.threads = threads;
      if (advisor_bounded) solver.deadline = deadline;
      cophy::CophyResult result =
          cophy::SolveCophy(engine, candidate_set, budget, solver);
      out.hard_error = !result.status.ok() &&
                       result.status.code() != StatusCode::kTimeout;
      out.selection = std::move(result.selection);
      out.status = std::move(result.status);
      break;
    }
  }
  return out;
}

}  // namespace

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kRecursive:
      return "H6 (Algorithm 1)";
    case StrategyKind::kH1:
      return "H1 (frequency)";
    case StrategyKind::kH2:
      return "H2 (selectivity)";
    case StrategyKind::kH3:
      return "H3 (selectivity/frequency)";
    case StrategyKind::kH4:
      return "H4 (benefit greedy)";
    case StrategyKind::kH4Skyline:
      return "H4 + skyline";
    case StrategyKind::kH5:
      return "H5 (benefit per byte)";
    case StrategyKind::kCophy:
      return "CoPhy (solver)";
  }
  return "unknown";
}

const char* StrategyKey(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kRecursive:
      return "h6";
    case StrategyKind::kH1:
      return "h1";
    case StrategyKind::kH2:
      return "h2";
    case StrategyKind::kH3:
      return "h3";
    case StrategyKind::kH4:
      return "h4";
    case StrategyKind::kH4Skyline:
      return "h4_skyline";
    case StrategyKind::kH5:
      return "h5";
    case StrategyKind::kCophy:
      return "cophy";
  }
  return "unknown";
}

Result<Recommendation> Recommend(WhatIfEngine& engine,
                                 const AdvisorOptions& options) {
  if (options.budget_bytes < 0.0 || options.budget_fraction < 0.0) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  Recommendation rec;
  rec.strategy = options.strategy;
  rec.executed_strategy = options.strategy;
  // Brackets the whole call so rec.report carries the metric deltas and
  // every span the strategies record below. Cold path: two registry
  // snapshots per Recommend().
  obs::RunScope obs_scope(StrategyName(options.strategy));
  // Brackets the selection journal (no-op unless obs::JournalEnabled()).
  // The lane order is installed below once the race list is resolved, so
  // Finish() serializes concurrently-racing lanes deterministically.
  obs::JournalScope journal_scope;

  // The advisor-wide wall-clock budget; threaded into every stage below.
  // Unbounded (plus no token) when no limit is configured, in which case
  // per-stage deadlines the caller set on `recursive`/`solver` still
  // apply untouched.
  rt::Deadline deadline = rt::Deadline::After(options.time_limit_seconds);
  if (options.cancellation != nullptr) {
    deadline.set_cancellation(options.cancellation);
  }
  const bool advisor_bounded =
      deadline.bounded() || options.cancellation != nullptr;

  // Resolve the budget. Single-attribute indexes whose size the backend
  // garbled (sanitized to +infinity, see WhatIfEngine) are left out of the
  // total — one broken size estimate must not blow the budget up to
  // infinity and admit everything.
  if (options.budget_bytes > 0.0) {
    rec.budget = options.budget_bytes;
  } else {
    double total_single = 0.0;
    for (workload::AttributeId i = 0;
         i < engine.workload().num_attributes(); ++i) {
      const double mem = engine.IndexMemory(Index(i));
      if (std::isfinite(mem)) total_single += mem;
    }
    rec.budget = options.budget_fraction * total_single;
  }

  rec.cost_before = engine.WorkloadCost(IndexConfig{});
  const uint64_t calls_before = engine.stats().calls;
  bool strategy_degraded = false;
  uint64_t extra_whatif_calls = 0;
  Stopwatch watch;

  // Scoped so the span closes (and lands in the tracer) before the run
  // report snapshot at the bottom collects it.
  {
  obs::Span recommend_span("advisor", "advisor.recommend");

  // The race list: the primary strategy first, then each distinct
  // portfolio entry in the order given — the deterministic tie-break
  // order of the race.
  std::vector<StrategyKind> lanes{options.strategy};
  for (StrategyKind extra : options.portfolio) {
    if (std::find(lanes.begin(), lanes.end(), extra) == lanes.end()) {
      lanes.push_back(extra);
    }
  }
  {
    // Lane buckets of the journal: the race list in order, then the mip
    // solver sub-records of a CoPhy lane, then the fallback heuristic,
    // then the advisor's own verdict records. Everything after the race
    // list is emitted serially after the lanes joined, so arrival order
    // inside each bucket is deterministic.
    std::vector<std::string> lane_order;
    for (StrategyKind lane : lanes) lane_order.push_back(StrategyKey(lane));
    const auto add_unique = [&](const char* key) {
      if (std::find(lane_order.begin(), lane_order.end(), key) ==
          lane_order.end()) {
        lane_order.push_back(key);
      }
    };
    add_unique("shard");  // arbiter records of a sharded kRecursive lane
    add_unique("mip");
    add_unique("h1");  // fallback records
    add_unique("advisor");
    journal_scope.SetLaneOrder(std::move(lane_order));
  }
  const size_t threads = exec::ResolveThreads(options.threads);

  candidates::CandidateSet candidate_set;
  bool need_candidates = false;
  for (StrategyKind lane : lanes) {
    need_candidates = need_candidates || NeedsCandidates(lane);
  }
  if (need_candidates) {
    if (options.candidate_limit == 0) {
      candidate_set = candidates::EnumerateAllCandidates(
          engine.workload(), options.candidate_max_width, deadline);
    } else {
      candidate_set = candidates::GenerateCandidates(
          engine.workload(), candidates::CandidateHeuristic::kH1M,
          options.candidate_limit, options.candidate_max_width, deadline);
    }
  }

  if (lanes.size() == 1) {
    const size_t shard_count = ResolveShardCount(options, engine.workload());
    StrategyOutcome out =
        RunStrategy(engine, options.strategy, options, rec.budget,
                    candidate_set, deadline, advisor_bounded, threads,
                    shard_count, rec.cost_before);
    if (out.hard_error && options.fallback == FallbackPolicy::kNone) {
      return out.status;
    }
    rec.selection = std::move(out.selection);
    rec.trace = std::move(out.trace);
    rec.status = std::move(out.status);
    strategy_degraded = out.degraded;
    extra_whatif_calls = out.extra_whatif_calls;
  } else {
    // Portfolio race. Lanes share the WhatIfEngine (concurrency-safe, so
    // one lane's what-if work warms the others' caches) and split the
    // thread budget evenly for their own inner parallelism. The winner is
    // chosen by inspection after all lanes return — never by finish
    // order — so the recommendation is deterministic.
    obs::Span portfolio_span("advisor", "advisor.portfolio");
    const size_t inner_threads = std::max<size_t>(1, threads / lanes.size());
    std::vector<StrategyOutcome> outcomes(lanes.size());
    auto run_lane = [&](size_t i) {
      outcomes[i] =
          RunStrategy(engine, lanes[i], options, rec.budget, candidate_set,
                      deadline, advisor_bounded, inner_threads,
                      /*shard_count=*/0, rec.cost_before);
    };
    exec::ParallelFor(threads, lanes.size(), run_lane);

    // Deterministic reduction: lowest workload cost among feasible lanes;
    // strict `<` keeps the earliest lane (primary, then portfolio order)
    // on ties. Hard-errored lanes cannot win; deadline-hit lanes compete
    // with their anytime incumbents.
    size_t winner = lanes.size();
    double winner_cost = std::numeric_limits<double>::infinity();
    // Per-lane verdicts for the journal, captured from the values the
    // reduction computes anyway (no extra engine calls when journaling).
    std::vector<const char*> lane_verdict(lanes.size(), "feasible");
    std::vector<double> lane_cost(lanes.size(), 0.0);
    for (size_t i = 0; i < lanes.size(); ++i) {
      if (outcomes[i].hard_error) {
        lane_verdict[i] = "hard-error";
        continue;
      }
      if (engine.ConfigMemory(outcomes[i].selection) >
          rec.budget * (1.0 + 1e-9)) {
        lane_verdict[i] = "infeasible";
        continue;
      }
      const double cost = engine.WorkloadCost(outcomes[i].selection);
      lane_cost[i] = cost;
      if (cost < winner_cost) {
        winner_cost = cost;
        winner = i;
      }
    }
    if (telemetry::JournalActive()) {
      for (size_t i = 0; i < lanes.size(); ++i) {
        telemetry::JournalEvent event;
        event.strategy = "advisor";
        event.action = "lane";
        event.round = i + 1;
        event.winner = StrategyKey(lanes[i]);
        event.objective_after = lane_cost[i];
        std::string note = lane_verdict[i];
        if (i == winner) note += " race-winner";
        event.note = note.c_str();
        telemetry::EmitJournal(event);
      }
    }
    if (winner == lanes.size()) {
      // Every lane failed hard (or returned infeasible garbage); surface
      // the primary's failure, optionally absorbed by the fallback below.
      if (options.fallback == FallbackPolicy::kNone) {
        return outcomes.front().status;
      }
      rec.status = std::move(outcomes.front().status);
    } else {
      rec.selection = std::move(outcomes[winner].selection);
      rec.trace = std::move(outcomes[winner].trace);
      rec.status = std::move(outcomes[winner].status);
      rec.executed_strategy = lanes[winner];
    }
    {
      obs::Registry& registry = obs::Registry::Default();
      registry.GetCounter("idxsel.advisor.portfolio.races")->Add(1);
      registry.GetCounter("idxsel.advisor.portfolio.lanes")
          ->Add(lanes.size());
      if (winner < lanes.size()) {
        registry
            .GetCounter(std::string("idxsel.strategy.") +
                        StrategyKey(lanes[winner]) + ".portfolio_wins")
            ->Add(1);
      }
    }
  }

  // A strategy that completed just before the wire still consumed the
  // whole advisor budget; report it as a DNF like any cut-short run.
  if (rec.status.ok() && deadline.expired()) {
    rec.status = Status::Timeout("advisor: deadline expired");
  }
  rec.dnf = rec.status.code() == StatusCode::kTimeout;

  // Graceful degradation: if the strategy did not finish cleanly, run the
  // cheapest always-completing heuristic (H1 ranks without what-if calls)
  // over single-attribute candidates, and keep whichever feasible
  // selection is cheaper. The fallback runs *without* the deadline: the
  // budget is already spent and this pass is O(attributes) on cached
  // sizes.
  if (!rec.status.ok() &&
      options.fallback == FallbackPolicy::kCheapestHeuristic) {
    candidates::CandidateSet singles;
    for (workload::AttributeId i = 0;
         i < engine.workload().num_attributes(); ++i) {
      singles.Add(Index(i));
    }
    selection::SelectionResult fb = selection::SelectRuleBased(
        engine, singles, rec.budget, selection::RuleHeuristic::kH1);
    const double primary_cost = engine.WorkloadCost(rec.selection);
    if (fb.objective < primary_cost) {
      rec.selection = std::move(fb.selection);
      rec.trace.clear();
      rec.fell_back = true;
      rec.executed_strategy = StrategyKind::kH1;
    }
    if (telemetry::JournalActive()) {
      telemetry::JournalEvent event;
      event.strategy = "advisor";
      event.action = "fallback";
      event.winner = StrategyKey(rec.executed_strategy);
      event.objective_after =
          rec.fell_back ? fb.objective : primary_cost;
      event.note = rec.fell_back
                       ? "fallback heuristic replaced the primary incumbent"
                       : "primary incumbent kept (fallback not cheaper)";
      telemetry::EmitJournal(event);
    }
  }
  }  // recommend_span closes here.

  rec.runtime_seconds = watch.ElapsedSeconds();
  rec.whatif_calls = engine.stats().calls - calls_before + extra_whatif_calls;
  rec.memory = engine.ConfigMemory(rec.selection);
  rec.cost_after = engine.WorkloadCost(rec.selection);
  rec.degraded = !rec.status.ok() || rec.fell_back ||
                 !engine.health().ok() || strategy_degraded;
  if (telemetry::JournalActive()) {
    // The advisor's closing verdict — deliberately free of wall-clock
    // fields so the journal stays byte-identical run-to-run.
    telemetry::JournalEvent event;
    event.strategy = "advisor";
    event.action = "decision";
    event.winner = StrategyKey(rec.executed_strategy);
    event.objective_before = rec.cost_before;
    event.objective_after = rec.cost_after;
    event.memory_after = rec.memory;
    std::string note = std::string("strategy=") + StrategyKey(rec.strategy);
    if (rec.dnf) note += " dnf";
    if (rec.fell_back) note += " fell-back";
    if (rec.degraded) note += " degraded";
    event.note = note.c_str();
    telemetry::EmitJournal(event);
  }
  rec.journal = journal_scope.Finish();
  {
    obs::Registry& registry = obs::Registry::Default();
    const std::string prefix =
        std::string("idxsel.strategy.") + StrategyKey(options.strategy);
    registry.GetCounter(prefix + ".runs")->Add(1);
    if (rec.dnf) registry.GetCounter("idxsel.rt.timeout")->Add(1);
    if (rec.fell_back) registry.GetCounter("idxsel.rt.fallback")->Add(1);
    if (obs::Enabled()) {
      registry.GetHistogram(prefix + ".wall_ns")
          ->Record(static_cast<uint64_t>(rec.runtime_seconds * 1e9));
    }
    rec.report = obs_scope.Finish();
  }
  return rec;
}

std::string Recommendation::Explain(const costmodel::Index& index) const {
  const std::string label = index.ToString();
  std::string out = "explain " + label + ":\n";
  out += selection.Contains(index)
             ? "  in the recommended selection\n"
             : "  not in the recommended selection\n";
  if (journal.empty()) {
    out += "  no journal was recorded for this run; enable it with "
           "IDXSEL_JOURNAL=1 or obs::SetJournalEnabled(true) before "
           "Recommend()\n";
    return out;
  }
  size_t mentions = 0;
  const auto line_head = [](const obs::JournalRecord& r) {
    return "  [" + r.strategy + "/" + r.action + " round " +
           std::to_string(r.round) + "] ";
  };
  for (const obs::JournalRecord& r : journal) {
    if (r.winner == label &&
        (r.action == "commit" || r.action == "pick" || r.action == "swap")) {
      ++mentions;
      out += line_head(r) + "chosen: ratio " + FormatDouble(r.winner_ratio, 6);
      if (!ExactlyZero(r.margin)) {
        out += ", margin " + FormatDouble(r.margin, 6) + " over runner-up";
      }
      out += "\n";
      continue;
    }
    if (r.winner == label && r.action == "prune") {
      ++mentions;
      out += line_head(r) + "pruned: " + r.note + "\n";
      continue;
    }
    for (const obs::JournalCandidate& c : r.candidates) {
      if (c.index != label) continue;
      ++mentions;
      if (!c.reject.empty()) {
        out += line_head(r) + "rejected (" + c.reject + "): benefit " +
               FormatDouble(c.benefit, 6) + ", memory delta " +
               FormatDouble(c.memory_delta, 0) + ", ratio " +
               FormatDouble(c.ratio, 6) + "\n";
      } else if (r.winner != label) {
        out += line_head(r) + "selected (memory " +
               FormatDouble(c.memory_delta, 0) + ")\n";
      }
    }
  }
  if (mentions == 0) {
    out += "  never appeared in any journaled decision (it was not an "
           "eligible candidate move of any round)\n";
  }
  return out;
}

std::string RenderReport(WhatIfEngine& engine, const Recommendation& rec,
                         const std::vector<std::string>* attribute_names) {
  const workload::Workload& w = engine.workload();
  auto index_label = [&](const Index& k) {
    std::string out = "(";
    for (size_t u = 0; u < k.width(); ++u) {
      if (u != 0) out += ", ";
      out += attribute_names != nullptr
                 ? (*attribute_names)[k.attribute(u)]
                 : std::to_string(k.attribute(u));
    }
    return out + ")";
  };

  std::string out;
  out += "=== Index recommendation — " +
         std::string(StrategyName(rec.strategy)) + " ===\n";
  out += "budget:        " + FormatBytes(rec.budget) + "\n";
  out += "memory used:   " + FormatBytes(rec.memory) + " (" +
         FormatDouble(rec.budget > 0 ? 100.0 * rec.memory / rec.budget : 0.0,
                      1) +
         "% of budget)\n";
  out += "workload cost: " + FormatDouble(rec.cost_before, 0) + " -> " +
         FormatDouble(rec.cost_after, 0) + " (" +
         FormatDouble(rec.cost_before > 0
                          ? 100.0 * rec.cost_after / rec.cost_before
                          : 0.0,
                      2) +
         "% of unindexed)\n";
  out += "runtime:       " + FormatSeconds(rec.runtime_seconds) +
         (rec.dnf ? " (DNF: time limit, incumbent reported)" : "") + "\n";
  if (rec.fell_back) {
    out += "note:          fell back to " +
           std::string(StrategyName(rec.executed_strategy)) +
           " (primary strategy did not finish cleanly)\n";
  } else if (rec.degraded) {
    out += "note:          degraded result (timeout or sanitized what-if "
           "answers; see status)\n";
  }
  out += "what-if calls: " + FormatCount(static_cast<int64_t>(
                                 rec.whatif_calls)) +
         "\n\n";

  // Count, per index, the queries it serves best; the first index in
  // configuration order wins a tie.
  std::vector<size_t> served(rec.selection.size(), 0);
  const auto& indexes = rec.selection.indexes();
  costmodel::LeadingRuns runs(w, rec.selection);
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    double best = engine.BaseCost(j);
    size_t owner = indexes.size();
    runs.ForEachApplicable(j, [&](uint32_t p, uint32_t) {
      const double cost = engine.CostWithIndex(j, indexes[p]);
      if (cost < best) {
        best = cost;
        owner = p;
      }
    });
    if (owner < indexes.size()) ++served[owner];
  }

  out += "recommended indexes (" + std::to_string(indexes.size()) + "):\n";
  for (size_t p = 0; p < indexes.size(); ++p) {
    out += "  " + index_label(indexes[p]) + "  " +
           FormatBytes(engine.IndexMemory(indexes[p])) + ", best plan for " +
           std::to_string(served[p]) + " queries\n";
  }
  if (!indexes.empty()) {
    out += "\nDDL:\n";
    out += costmodel::RenderCreateStatements(w, rec.selection,
                                             attribute_names);
  }
  return out;
}

}  // namespace idxsel::advisor
