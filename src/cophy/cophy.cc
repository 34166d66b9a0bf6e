#include "cophy/cophy.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "obs/obs.h"

namespace idxsel::cophy {

LpStatistics ComputeLpStatistics(const workload::Workload& workload,
                                 const CandidateSet& candidates) {
  const auto applicability =
      candidates::ComputeApplicability(workload, candidates);
  size_t applicable_total = 0;
  for (const auto& sets : applicability) applicable_total += sets.size();

  LpStatistics stats;
  // Variables: x_k per candidate, z_jk per applicable pair, z_j0 per query.
  stats.num_variables =
      candidates.size() + applicable_total + workload.num_queries();
  // Constraints: assignment (6) per query, coupling (7) per applicable
  // pair, one memory budget (8).
  stats.num_constraints = workload.num_queries() + applicable_total + 1;
  stats.mean_applicable_candidates =
      candidates::MeanApplicableCandidates(applicability);
  return stats;
}

mip::Problem BuildProblem(WhatIfEngine& engine, const CandidateSet& candidates,
                          double budget, const rt::Deadline& deadline) {
  obs::Span span("cophy", "cophy.build_problem");
  rt::DeadlinePoller poller(deadline);
  const workload::Workload& workload = engine.workload();
  mip::Problem problem;
  problem.budget = budget;
  problem.query_weight.resize(workload.num_queries());
  problem.base_cost.resize(workload.num_queries());
  for (workload::QueryId j = 0; j < workload.num_queries(); ++j) {
    problem.query_weight[j] = workload.query(j).frequency;
    problem.base_cost[j] = engine.BaseCost(j);
  }
  problem.candidate_costs.resize(candidates.size());
  problem.candidate_memory.resize(candidates.size());
  bool any_penalty = false;
  std::vector<double> penalties(candidates.size(), 0.0);
  for (uint32_t c = 0; c < candidates.size(); ++c) {
    const Index& k = candidates[c];
    if (poller.Expired()) {
      // Unpriced candidates get infinite memory: Canonicalize() drops
      // them, and no finite budget could ever admit one — the truncated
      // problem's feasible set only contains fully-priced candidates.
      problem.candidate_memory[c] = std::numeric_limits<double>::infinity();
      continue;
    }
    const auto& posting = workload.queries_with(k.leading());
    problem.candidate_costs[c].reserve(posting.size());
    // The posting-list position doubles as the dense row slot, so
    // repeated builds (budget sweeps, PreparedCophy) price hash-free.
    const kernel::IndexId id = engine.InternIndex(k);
    problem.candidate_memory[c] = engine.IndexMemoryDense(id);
    penalties[c] = engine.MaintenancePenaltyDense(id);
    any_penalty = any_penalty || penalties[c] > 0.0;
    for (uint32_t s = 0; s < posting.size(); ++s) {
      problem.candidate_costs[c].push_back(mip::QueryCost{
          posting[s], engine.CostWithIndexDense(posting[s], id, s)});
    }
  }
  if (any_penalty) problem.candidate_penalty = std::move(penalties);
  return problem;
}

namespace {

CophyResult SolveProblem(mip::Problem problem, const CandidateSet& candidates,
                         const mip::SolveOptions& options,
                         LpStatistics lp_stats) {
  obs::Span span("cophy", "cophy.solve");
  obs::Registry& registry = obs::Registry::Default();
  registry.GetCounter("idxsel.cophy.solves")->Add(1);
  registry.GetGauge("idxsel.cophy.last_lp_variables")
      ->Set(static_cast<int64_t>(lp_stats.num_variables));
  registry.GetGauge("idxsel.cophy.last_lp_constraints")
      ->Set(static_cast<int64_t>(lp_stats.num_constraints));
  CophyResult result;
  result.lp_stats = lp_stats;
  const std::vector<uint32_t> mapping = problem.Canonicalize();

  const mip::SolveResult solved = mip::Solve(problem, options);
  result.status = solved.status;
  result.dnf = solved.status.code() == StatusCode::kTimeout;
  // The pipeline deadline covers the whole CoPhy run (problem assembly
  // included). A solver that "finished" on a build-truncated problem, or
  // right after expiry, is still a DNF: what it solved is not the full
  // instance the caller asked for.
  if (!result.dnf && result.status.ok() && options.deadline.expired()) {
    result.status = Status::Timeout("cophy: deadline expired");
    result.dnf = true;
  }
  result.objective = solved.objective;
  result.best_bound = solved.best_bound;
  result.gap = solved.gap;
  result.solve_seconds = solved.wall_seconds;
  result.nodes = solved.nodes;
  for (uint32_t canonical : solved.selected) {
    IDXSEL_CHECK_LT(canonical, mapping.size());
    result.selection.Insert(candidates[mapping[canonical]]);
  }
  span.SetArg("nodes", static_cast<double>(result.nodes));

  // Decision provenance: one record per solve, built exclusively from the
  // deterministic end-state (selection, objective, status). Node counts,
  // bounds, and gaps are timing-dependent under parallel branch-and-bound
  // (shared-incumbent pruning), so they stay out of the journal — see
  // doc/parallelism.md.
  if (telemetry::JournalActive()) {
    std::vector<std::string> labels;
    std::vector<telemetry::JournalCandidate> picked;
    labels.reserve(solved.selected.size());
    picked.reserve(solved.selected.size());
    for (uint32_t canonical : solved.selected) {
      labels.push_back(candidates[mapping[canonical]].ToString());
      telemetry::JournalCandidate candidate;
      candidate.index = labels.back().c_str();
      candidate.memory_delta = problem.candidate_memory[canonical];
      picked.push_back(candidate);
    }
    telemetry::JournalEvent event;
    event.strategy = "cophy";
    event.action = "solve";
    event.round = 1;
    event.objective_after = result.objective;
    event.candidates = picked.data();
    event.num_candidates = picked.size();
    const std::string note =
        std::string(result.dnf ? "timeout" : "ok") +
        " selected=" + std::to_string(solved.selected.size());
    event.note = note.c_str();
    telemetry::EmitJournal(event);
  }
  return result;
}

}  // namespace

CophyResult SolveCophy(WhatIfEngine& engine, const CandidateSet& candidates,
                       double budget, const mip::SolveOptions& options) {
  return SolveProblem(
      BuildProblem(engine, candidates, budget, options.deadline), candidates,
      options, ComputeLpStatistics(engine.workload(), candidates));
}

PreparedCophy::PreparedCophy(WhatIfEngine& engine,
                             const CandidateSet& candidates)
    : candidates_(&candidates),
      base_(BuildProblem(engine, candidates,
                         std::numeric_limits<double>::infinity())),
      lp_stats_(ComputeLpStatistics(engine.workload(), candidates)) {}

CophyResult PreparedCophy::Solve(double budget,
                                 const mip::SolveOptions& options) const {
  mip::Problem problem = base_;
  problem.budget = budget;
  return SolveProblem(std::move(problem), *candidates_, options, lp_stats_);
}

}  // namespace idxsel::cophy
