#include "selection/autoadmin.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "obs/obs.h"

namespace idxsel::selection {

AutoAdminResult SelectAutoAdmin(WhatIfEngine& engine,
                                const AutoAdminOptions& options) {
  obs::Span span("strategy", "autoadmin.select");
  Stopwatch watch;
  const workload::Workload& w = engine.workload();
  AutoAdminResult result;

  // Step 1: per query, the cheapest index among all enumerable candidates
  // for that query; the union forms the candidate set.
  const CandidateSet universe = candidates::EnumerateAllCandidates(
      w, options.candidate_max_width);
  const auto applicability = candidates::ComputeApplicability(w, universe);
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    double best_cost = engine.BaseCost(j);
    const costmodel::Index* best = nullptr;
    for (uint32_t c : applicability[j]) {
      const double cost = engine.CostWithIndex(j, universe[c]);
      if (cost < best_cost) {
        best_cost = cost;
        best = &universe[c];
      }
    }
    if (best != nullptr) result.candidates.Add(*best);
  }

  // Step 2: greedy enumeration by total cost reduction against the current
  // configuration (index interaction enters through the re-evaluation).
  std::vector<double> current_cost(w.num_queries());
  double objective = 0.0;
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    current_cost[j] = engine.BaseCost(j);
    objective += w.query(j).frequency * current_cost[j];
  }

  IndexConfig config;
  double memory = 0.0;
  std::vector<char> taken(result.candidates.size(), 0);
  while (config.size() < options.max_indexes) {
    double best_gain = 0.0;
    uint32_t best_candidate = 0;
    bool found = false;
    for (uint32_t c = 0; c < result.candidates.size(); ++c) {
      if (taken[c]) continue;
      const costmodel::Index& k = result.candidates[c];
      if (memory + engine.IndexMemory(k) > options.budget) continue;
      double gain = -engine.MaintenancePenalty(k);
      for (workload::QueryId j : w.queries_with(k.leading())) {
        const double delta = current_cost[j] - engine.CostWithIndex(j, k);
        if (delta > 0.0) gain += w.query(j).frequency * delta;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_candidate = c;
        found = true;
      }
    }
    if (!found) break;

    taken[best_candidate] = 1;
    const costmodel::Index& k = result.candidates[best_candidate];
    config.Insert(k);
    memory += engine.IndexMemory(k);
    for (workload::QueryId j : w.queries_with(k.leading())) {
      current_cost[j] =
          std::min(current_cost[j], engine.CostWithIndex(j, k));
    }
  }

  result.selection.name = "AutoAdmin";
  result.selection.selection = std::move(config);
  result.selection.memory = memory;
  result.selection.objective =
      engine.WorkloadCost(result.selection.selection);
  result.selection.runtime_seconds = watch.ElapsedSeconds();
  obs::Registry& registry = obs::Registry::Default();
  registry.GetCounter("idxsel.autoadmin.runs")->Add(1);
  registry.GetCounter("idxsel.autoadmin.greedy_rounds")
      ->Add(result.selection.selection.size());
  registry.GetGauge("idxsel.autoadmin.last_candidates")
      ->Set(static_cast<int64_t>(result.candidates.size()));
  return result;
}

}  // namespace idxsel::selection
