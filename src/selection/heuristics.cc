#include "selection/heuristics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "obs/obs.h"

namespace idxsel::selection {
namespace {

/// Listed budget-rejected candidates per greedy fill; beyond this they are
/// only counted (mirrors the recursive selector's cap).
constexpr size_t kJournalRejectCap = 32;

/// Walks `scored` (already ordered best-first; `.first` is the strategy's
/// ranking score, lower = better) and takes every candidate that still
/// fits the budget. Expiry stops the walk: every candidate accepted
/// before the cut stays — the fill is anytime.
///
/// When a selection-journal sink is installed (common/telemetry.h), every
/// accepted pick emits a "pick" record under `journal_strategy` — `ratio`
/// carries the ranking score — and the fill closes with a "stop" record
/// listing the budget-rejected candidates (capped) with their reasons.
/// Emission is fully serial, so journals are byte-identical across runs.
IndexConfig GreedyFill(WhatIfEngine& engine, const CandidateSet& candidates,
                       const std::vector<std::pair<double, uint32_t>>& scored,
                       double budget, rt::DeadlinePoller& poller,
                       const char* journal_strategy) {
  const bool journal = telemetry::JournalActive();
  IndexConfig config;
  double used = 0.0;
  uint64_t picks = 0;
  uint64_t budget_exceeded = 0;
  uint64_t sanitized = 0;
  std::vector<std::string> reject_labels;
  std::vector<telemetry::JournalCandidate> rejects;
  for (const auto& [score, c] : scored) {
    if (poller.Expired()) break;
    const double mem = engine.IndexMemory(candidates[c]);
    if (used + mem > budget) {
      if (journal) {
        const bool was_sanitized = !std::isfinite(mem);
        if (was_sanitized) {
          ++sanitized;
        } else {
          ++budget_exceeded;
        }
        if (rejects.size() < kJournalRejectCap) {
          reject_labels.push_back(candidates[c].ToString());
          telemetry::JournalCandidate reject;
          reject.reject =
              was_sanitized ? "sanitized-whatif" : "budget-exceeded";
          reject.memory_delta = mem;
          reject.ratio = score;
          rejects.push_back(reject);
        }
      }
      continue;
    }
    if (config.Insert(candidates[c])) {
      used += mem;
      if (journal) {
        const std::string label = candidates[c].ToString();
        telemetry::JournalEvent event;
        event.strategy = journal_strategy;
        event.action = "pick";
        event.round = ++picks;
        event.winner = label.c_str();
        event.winner_ratio = score;
        event.memory_after = used;
        telemetry::JournalCandidate winner;
        winner.index = label.c_str();
        winner.memory_delta = mem;
        winner.ratio = score;
        event.candidates = &winner;
        event.num_candidates = 1;
        telemetry::EmitJournal(event);
      }
    }
  }
  if (journal) {
    telemetry::JournalEvent event;
    event.strategy = journal_strategy;
    event.action = "stop";
    event.round = picks;
    event.memory_after = used;
    if (poller.expired()) {
      // The reject list of a cut-short walk depends on where the deadline
      // fired; keep the terminal record deterministic-ingredients-only.
      event.note = "timeout";
    } else {
      // Labels were pushed in lockstep with rejects and the vector never
      // reallocates strings themselves; bind pointers here, after both
      // vectors stopped growing.
      for (size_t r = 0; r < rejects.size(); ++r) {
        rejects[r].index = reject_labels[r].c_str();
      }
      event.candidates = rejects.data();
      event.num_candidates = rejects.size();
      event.sanitized_whatif = sanitized;
      const std::string note =
          "scored=" + std::to_string(scored.size()) +
          " budget_exceeded=" + std::to_string(budget_exceeded) +
          " listed_rejects=" + std::to_string(rejects.size());
      event.note = note.c_str();
      telemetry::EmitJournal(event);
      return config;
    }
    telemetry::EmitJournal(event);
  }
  return config;
}

SelectionResult Finish(std::string name, WhatIfEngine& engine,
                       IndexConfig config, double selector_seconds,
                       bool timed_out) {
  SelectionResult result;
  result.name = std::move(name);
  result.memory = engine.ConfigMemory(config);
  result.objective = engine.WorkloadCost(config);
  result.selection = std::move(config);
  result.runtime_seconds = selector_seconds;
  result.status = timed_out
                      ? Status::Timeout(result.name + ": deadline expired")
                      : Status::Ok();
  obs::Registry::Default()
      .GetCounter("idxsel.heuristics." + result.name + ".runs")
      ->Add(1);
  return result;
}

/// Individually-measured workload benefit of candidate c:
/// sum over applicable queries of b_j * max(0, f_j(0) - f_j(k)), minus the
/// maintenance penalty write queries inflict on k.
double StaticBenefit(WhatIfEngine& engine, const Index& k) {
  const workload::Workload& workload = engine.workload();
  double benefit = -engine.MaintenancePenalty(k);
  for (workload::QueryId j : workload.queries_with(k.leading())) {
    const double gain = engine.BaseCost(j) - engine.CostWithIndex(j, k);
    if (gain > 0.0) benefit += workload.query(j).frequency * gain;
  }
  return benefit;
}

}  // namespace

SelectionResult SelectRuleBased(WhatIfEngine& engine,
                                const CandidateSet& candidates, double budget,
                                RuleHeuristic heuristic,
                                const rt::Deadline& deadline) {
  obs::Span span("strategy", "heuristics.rule_based");
  Stopwatch watch;
  rt::DeadlinePoller poller(deadline);
  const workload::Workload& workload = engine.workload();

  // Lower score = better.
  auto score_of = [&](const Index& k) {
    double occurrences = 0.0;
    double selectivity = 1.0;
    for (workload::AttributeId a : k.attributes()) {
      occurrences += workload.occurrence_weight(a);
      selectivity *= workload.attribute(a).selectivity();
    }
    switch (heuristic) {
      case RuleHeuristic::kH1:
        return -occurrences;
      case RuleHeuristic::kH2:
        return selectivity;
      case RuleHeuristic::kH3:
        return occurrences > 0.0 ? selectivity / occurrences
                                 : std::numeric_limits<double>::infinity();
    }
    return 0.0;
  };

  std::vector<std::pair<double, uint32_t>> scored;
  scored.reserve(candidates.size());
  for (uint32_t c = 0; c < candidates.size(); ++c) {
    if (poller.Expired()) break;  // rank (and fill from) what was scored
    scored.emplace_back(score_of(candidates[c]), c);
  }
  std::sort(scored.begin(), scored.end());

  const bool h1 = heuristic == RuleHeuristic::kH1;
  const bool h2 = heuristic == RuleHeuristic::kH2;
  IndexConfig config =
      GreedyFill(engine, candidates, scored, budget, poller,
                 h1 ? "h1" : (h2 ? "h2" : "h3"));
  const double seconds = watch.ElapsedSeconds();
  return Finish(h1 ? "H1" : (h2 ? "H2" : "H3"), engine, std::move(config),
                seconds, poller.expired());
}

SelectionResult SelectByBenefit(WhatIfEngine& engine,
                                const CandidateSet& candidates, double budget,
                                bool use_skyline,
                                const rt::Deadline& deadline) {
  obs::Span span("strategy", "heuristics.by_benefit");
  rt::DeadlinePoller poller(deadline);
  const CandidateSet* pool = &candidates;
  CandidateSet filtered;
  if (use_skyline) {
    filtered = candidates::SkylineFilter(candidates, engine, deadline);
    pool = &filtered;
  }
  Stopwatch watch;
  std::vector<std::pair<double, uint32_t>> scored;
  scored.reserve(pool->size());
  for (uint32_t c = 0; c < pool->size(); ++c) {
    if (poller.Expired()) break;
    const double benefit = StaticBenefit(engine, (*pool)[c]);
    if (benefit > 0.0) scored.emplace_back(-benefit, c);
  }
  std::sort(scored.begin(), scored.end());

  IndexConfig config =
      GreedyFill(engine, *pool, scored, budget, poller,
                 use_skyline ? "h4_skyline" : "h4");
  const double seconds = watch.ElapsedSeconds();
  return Finish(use_skyline ? "H4+skyline" : "H4", engine, std::move(config),
                seconds, poller.expired());
}

SelectionResult SelectByBenefitPerSize(WhatIfEngine& engine,
                                       const CandidateSet& candidates,
                                       double budget,
                                       const rt::Deadline& deadline) {
  obs::Span span("strategy", "heuristics.by_benefit_per_size");
  Stopwatch watch;
  rt::DeadlinePoller poller(deadline);
  std::vector<std::pair<double, uint32_t>> scored;
  scored.reserve(candidates.size());
  for (uint32_t c = 0; c < candidates.size(); ++c) {
    if (poller.Expired()) break;
    const double benefit = StaticBenefit(engine, candidates[c]);
    if (benefit <= 0.0) continue;
    const double mem = engine.IndexMemory(candidates[c]);
    scored.emplace_back(-benefit / std::max(1.0, mem), c);
  }
  std::sort(scored.begin(), scored.end());

  IndexConfig config =
      GreedyFill(engine, candidates, scored, budget, poller, "h5");
  const double seconds = watch.ElapsedSeconds();
  return Finish("H5", engine, std::move(config), seconds, poller.expired());
}

}  // namespace idxsel::selection
