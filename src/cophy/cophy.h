// CoPhy-style solver-based index selection (Section II-B, eqs. 5-8).
//
// Re-implementation of the comparison baseline: given a fixed candidate set
// I, CoPhy picks the optimal selection under the one-index-per-query
// assumption by solving the binary program
//
//   minimize    sum_j sum_{k in I_j + {0}} b_j f_j(k) z_jk
//   subject to  sum_k z_jk = 1              for all j        (6)
//               z_jk <= x_k                                   (7)
//               sum_i p_i x_i <= A                            (8)
//
// The program is solved in its equivalent reduced form via idxsel::mip
// (the CPLEX substitute, exact with mipgap/time-limit). The explicit LP is
// never built; ComputeLpStatistics counts its size for Figure 6.

#ifndef IDXSEL_COPHY_COPHY_H_
#define IDXSEL_COPHY_COPHY_H_

#include <cstdint>

#include "candidates/candidates.h"
#include "costmodel/index.h"
#include "costmodel/what_if.h"
#include "mip/branch_and_bound.h"
#include "mip/problem.h"

namespace idxsel::cophy {

using candidates::CandidateSet;
using costmodel::Index;
using costmodel::IndexConfig;
using costmodel::WhatIfEngine;

/// Size of CoPhy's LP for a candidate set (Figure 6 / Section II-B):
/// variables |I| + sum_j (|I_j| + 1), constraints Q + sum_j |I_j| + 1.
struct LpStatistics {
  size_t num_variables = 0;
  size_t num_constraints = 0;
  double mean_applicable_candidates = 0.0;  ///< I-bar_q.
};

/// Counts variables/constraints without building anything.
LpStatistics ComputeLpStatistics(const workload::Workload& workload,
                                 const CandidateSet& candidates);

/// Builds the reduced binary program (see mip::Problem). Issues the
/// f_j(0) / f_j(k) what-if calls for every applicable (query, candidate)
/// pair — this is exactly the ~Q * I-bar_q call volume the paper attributes
/// to CoPhy. The problem is returned un-canonicalized.
///
/// The per-candidate what-if loop polls `deadline`; candidates whose calls
/// were cut short are given +infinite memory (and no cost entries), so a
/// truncated build still yields a well-formed problem whose solutions can
/// only use fully-priced candidates.
mip::Problem BuildProblem(WhatIfEngine& engine, const CandidateSet& candidates,
                          double budget,
                          const rt::Deadline& deadline = rt::Deadline());

/// Outcome of a CoPhy run.
struct CophyResult {
  Status status;            ///< Ok, or kTimeout for a DNF.
  IndexConfig selection;    ///< Chosen indexes (valid even on timeout).
  double objective = 0.0;   ///< F(selection), frequency-weighted.
  double best_bound = 0.0;  ///< Proven objective lower bound.
  double gap = 0.0;
  double solve_seconds = 0.0;  ///< Solver time, excluding what-if calls.
  uint64_t nodes = 0;
  bool dnf = false;  ///< Did not finish within the time limit.
  LpStatistics lp_stats;
};

/// Runs CoPhy end to end on a candidate set: builds the program (what-if
/// calls), solves it, and maps the solution back to indexes.
/// `options.deadline` governs the whole run — problem assembly (see
/// BuildProblem) as well as the branch-and-bound; a run that overran its
/// deadline reports kTimeout/dnf even if the solver itself finished.
CophyResult SolveCophy(WhatIfEngine& engine, const CandidateSet& candidates,
                       double budget, const mip::SolveOptions& options = {});

/// Amortizes the expensive part of SolveCophy — what-if calls and problem
/// assembly — across many budgets (frontier sweeps solve the same program
/// with A as the only change). The candidate set must outlive the object.
class PreparedCophy {
 public:
  PreparedCophy(WhatIfEngine& engine, const CandidateSet& candidates);

  /// Solves for one budget; only the per-budget canonicalization and the
  /// branch-and-bound run are paid.
  CophyResult Solve(double budget,
                    const mip::SolveOptions& options = {}) const;

  const LpStatistics& lp_stats() const { return lp_stats_; }

 private:
  const CandidateSet* candidates_;
  mip::Problem base_;  ///< Budget-free master copy.
  LpStatistics lp_stats_;
};

}  // namespace idxsel::cophy

#endif  // IDXSEL_COPHY_COPHY_H_
