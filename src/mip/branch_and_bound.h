// Exact branch-and-bound solver for the index-selection binary program.
//
// Stands in for the paper's CPLEX runs (Table I: "CPLEX 12.7, mipgap=0.05,
// via NEOS"). The solver maximizes the workload *benefit*
// B(S) = sum_j b_j * max(0, f_j(0) - min_{k in S} f_j(k)), which is a
// monotone submodular set function, subject to the memory knapsack.
//
// Bounding: at a node with committed set S1 and free candidates R, by
// submodularity  B(S1 + R') <= B(S1) + sum_{k in R'} mu_k(S1)  where
// mu_k(S1) is k's marginal benefit against S1. The node bound is therefore
// B(S1) plus the *fractional knapsack* optimum over R with values mu_k and
// weights p_k — computed in O(|R| log |R|) per node without any LP.
//
// Incumbents come from a density-greedy completion at the root; branching
// follows the fractional knapsack's critical item, include-branch first.
// A MIP gap and a wall-clock deadline terminate early exactly like CPLEX's
// mipgap / time-limit parameters (a deadline hit reports kTimeout with the
// incumbent attached — the paper's "DNF").

#ifndef IDXSEL_MIP_BRANCH_AND_BOUND_H_
#define IDXSEL_MIP_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "mip/problem.h"

namespace idxsel::mip {

/// Termination controls, mirroring CPLEX's mipgap / time limit.
struct SolveOptions {
  /// Relative optimality gap at which search stops: stop once
  /// (incumbent - bound) / max(|incumbent|, 1e-10) <= mip_gap.
  double mip_gap = 0.0;
  /// Wall-clock limit in seconds; exceeded => kTimeout with incumbent.
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  /// Hard cap on explored nodes; exceeded => kResourceLimit with incumbent.
  uint64_t max_nodes = std::numeric_limits<uint64_t>::max();
  /// Absolute deadline / cancellation shared with the rest of the pipeline
  /// (rt layer); checked at the same amortized cadence as
  /// `time_limit_seconds` and likewise reports kTimeout with the incumbent.
  /// Both limits apply; whichever fires first stops the search.
  rt::Deadline deadline;
  /// Worker threads for parallel subtree exploration. 1 = the classic
  /// serial DFS (default), 0 = auto (exec::DefaultThreads()), n = n lanes.
  /// The parallel path splits the tree into a fixed, thread-count
  /// independent set of subproblems (deterministic BFS using the serial
  /// branching rule), solves them through one exec::ParallelFor with a
  /// shared atomic incumbent used only for *bound-safe* pruning, and
  /// reduces the per-subtree optima in DFS order — so the optimality
  /// guarantee (gap) is identical to serial, and the returned selection is
  /// independent of the thread count. See doc/parallelism.md for the
  /// exactness argument.
  size_t threads = 1;
};

/// Solver output. `status` is Ok when the gap target was proven, kTimeout /
/// kResourceLimit when stopped early (the incumbent is still valid).
struct SolveResult {
  Status status;
  std::vector<uint32_t> selected;  ///< Candidate positions (canonical ids).
  double objective = 0.0;          ///< sum_j b_j f_j(selection).
  double best_bound = 0.0;         ///< Proven lower bound on the objective.
  double gap = 0.0;                ///< Final relative gap.
  uint64_t nodes = 0;
  uint64_t bound_cutoffs = 0;      ///< Subtrees pruned by the node bound.
  uint64_t incumbent_updates = 0;  ///< Strict incumbent improvements.
  double seconds_to_best = 0.0;    ///< Wall time until the final incumbent.
  double wall_seconds = 0.0;
  bool proven_optimal = false;     ///< gap <= mip_gap achieved.
};

/// Solves the given (already canonicalized) problem.
SolveResult Solve(const Problem& problem, const SolveOptions& options = {});

/// Density-greedy heuristic on its own: repeatedly adds the affordable
/// candidate with the best marginal-benefit-per-byte until the budget is
/// exhausted (lazy/CELF evaluation). Used for root incumbents and exposed
/// for the H5-style baselines.
std::vector<uint32_t> GreedyByDensity(const Problem& problem);

}  // namespace idxsel::mip

#endif  // IDXSEL_MIP_BRANCH_AND_BOUND_H_
