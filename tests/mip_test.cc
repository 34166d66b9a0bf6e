// Tests for the branch-and-bound solver: optimality against exhaustive
// enumeration and random feasible samples, gap/time-limit semantics, and
// the lazy greedy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/deadline.h"
#include "common/random.h"
#include "mip/branch_and_bound.h"
#include "mip/problem.h"

namespace idxsel::mip {
namespace {

/// Objective of a selection: sum_j b_j * min(base_j, min_{k in S} f_jk).
double Evaluate(const Problem& p, const std::vector<uint32_t>& selection) {
  std::vector<double> cost = p.base_cost;
  for (uint32_t k : selection) {
    for (const QueryCost& qc : p.candidate_costs[k]) {
      cost[qc.query] = std::min(cost[qc.query], qc.cost);
    }
  }
  double total = 0.0;
  for (size_t j = 0; j < cost.size(); ++j) {
    total += p.query_weight[j] * cost[j];
  }
  return total;
}

double Memory(const Problem& p, const std::vector<uint32_t>& selection) {
  double total = 0.0;
  for (uint32_t k : selection) total += p.candidate_memory[k];
  return total;
}

/// Brute force over all 2^K subsets.
double BruteForceOptimum(const Problem& p) {
  const size_t K = p.num_candidates();
  double best = Evaluate(p, {});
  for (uint32_t mask = 1; mask < (1u << K); ++mask) {
    std::vector<uint32_t> sel;
    for (uint32_t k = 0; k < K; ++k) {
      if (mask & (1u << k)) sel.push_back(k);
    }
    if (Memory(p, sel) > p.budget) continue;
    best = std::min(best, Evaluate(p, sel));
  }
  return best;
}

Problem RandomProblem(uint64_t seed, size_t queries, size_t candidates) {
  Rng rng(seed);
  Problem p;
  p.query_weight.resize(queries);
  p.base_cost.resize(queries);
  for (size_t j = 0; j < queries; ++j) {
    p.query_weight[j] = rng.Uniform(1.0, 10.0);
    p.base_cost[j] = rng.Uniform(50.0, 100.0);
  }
  p.candidate_costs.resize(candidates);
  p.candidate_memory.resize(candidates);
  double total_memory = 0.0;
  for (size_t k = 0; k < candidates; ++k) {
    p.candidate_memory[k] = rng.Uniform(1.0, 10.0);
    total_memory += p.candidate_memory[k];
    const size_t touches = static_cast<size_t>(rng.UniformInt(1, 4));
    std::vector<uint32_t> qs;
    for (size_t u = 0; u < touches; ++u) {
      qs.push_back(static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(queries) - 1)));
    }
    std::sort(qs.begin(), qs.end());
    qs.erase(std::unique(qs.begin(), qs.end()), qs.end());
    for (uint32_t j : qs) {
      p.candidate_costs[k].push_back(
          QueryCost{j, rng.Uniform(1.0, p.base_cost[j])});
    }
  }
  p.budget = total_memory * 0.4;
  return p;
}

TEST(ProblemTest, CanonicalizeDropsUselessEntries) {
  Problem p;
  p.query_weight = {1.0, 1.0};
  p.base_cost = {10.0, 20.0};
  p.budget = 5.0;
  p.candidate_costs = {
      {{0, 5.0}, {1, 25.0}},  // entry for query 1 useless (25 > 20)
      {{0, 12.0}},            // fully useless
      {{1, 1.0}},             // too big (memory 9 > 5)
  };
  p.candidate_memory = {2.0, 1.0, 9.0};
  const std::vector<uint32_t> mapping = p.Canonicalize();
  ASSERT_EQ(mapping.size(), 1u);
  EXPECT_EQ(mapping[0], 0u);
  ASSERT_EQ(p.candidate_costs.size(), 1u);
  EXPECT_EQ(p.candidate_costs[0].size(), 1u);
  EXPECT_EQ(p.candidate_costs[0][0].query, 0u);
}

TEST(BranchAndBoundTest, EmptyProblem) {
  Problem p;
  p.query_weight = {2.0};
  p.base_cost = {10.0};
  p.budget = 100.0;
  const SolveResult r = Solve(p);
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.selected.empty());
  EXPECT_DOUBLE_EQ(r.objective, 20.0);
  EXPECT_TRUE(r.proven_optimal);
}

TEST(BranchAndBoundTest, SingleBeneficialCandidate) {
  Problem p;
  p.query_weight = {1.0};
  p.base_cost = {10.0};
  p.candidate_costs = {{{0, 2.0}}};
  p.candidate_memory = {5.0};
  p.budget = 5.0;
  const SolveResult r = Solve(p);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_DOUBLE_EQ(r.objective, 2.0);
}

TEST(BranchAndBoundTest, BudgetExcludesCandidate) {
  Problem p;
  p.query_weight = {1.0};
  p.base_cost = {10.0};
  p.candidate_costs = {{{0, 2.0}}};
  p.candidate_memory = {5.0};
  p.budget = 4.0;  // cannot afford it
  p.Canonicalize();
  const SolveResult r = Solve(p);
  EXPECT_TRUE(r.selected.empty());
  EXPECT_DOUBLE_EQ(r.objective, 10.0);
}

TEST(BranchAndBoundTest, PicksComplementaryOverCannibalizing) {
  // Candidates 0 and 1 both help query 0 (cannibalize); candidate 2 helps
  // query 1. Budget fits two: optimum must pick one of {0,1} plus 2, not
  // both cannibals.
  Problem p;
  p.query_weight = {1.0, 1.0};
  p.base_cost = {100.0, 100.0};
  p.candidate_costs = {{{0, 10.0}}, {{0, 12.0}}, {{1, 30.0}}};
  p.candidate_memory = {10.0, 10.0, 10.0};
  p.budget = 20.0;
  const SolveResult r = Solve(p);
  EXPECT_DOUBLE_EQ(r.objective, 40.0);  // 10 + 30
  ASSERT_EQ(r.selected.size(), 2u);
  EXPECT_EQ(r.selected[0], 0u);
  EXPECT_EQ(r.selected[1], 2u);
}

TEST(BranchAndBoundTest, GreedyDensityTrapRequiresSearch) {
  // Density greedy takes candidate 0 (high density, small) which blocks the
  // truly optimal big candidate 1. B&B must recover the optimum.
  Problem p;
  p.query_weight = {1.0, 1.0};
  p.base_cost = {100.0, 100.0};
  p.candidate_costs = {
      {{0, 90.0}},            // benefit 10, memory 1 -> density 10
      {{0, 10.0}, {1, 10.0}}, // benefit 180, memory 100 -> density 1.8
  };
  p.candidate_memory = {1.0, 100.0};
  p.budget = 100.0;  // can afford only the big one
  const SolveResult r = Solve(p);
  EXPECT_DOUBLE_EQ(r.objective, 20.0);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0], 1u);
}

TEST(BranchAndBoundTest, DegenerateProblemTerminates) {
  // Three groups of four identical candidates: every density ties, and one
  // pick per group zeroes its copies' marginals.
  Problem p;
  p.query_weight = {1.0, 1.0, 1.0};
  p.base_cost = {10.0, 10.0, 10.0};
  for (uint32_t k = 0; k < 12; ++k) {
    p.candidate_costs.push_back({{k % 3, 4.0}});
    p.candidate_memory.push_back(1.0);
  }
  p.budget = 2.0;
  const double brute = BruteForceOptimum(p);
  p.Canonicalize();
  const SolveResult r = Solve(p);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.objective, 18.0);  // two queries at 4, one at 10
  EXPECT_NEAR(r.objective, brute, 1e-9);
  ASSERT_EQ(r.selected.size(), 2u);
  EXPECT_NE(p.candidate_costs[r.selected[0]][0].query,
            p.candidate_costs[r.selected[1]][0].query);
}

TEST(BranchAndBoundTest, TimeLimitReportsTimeoutWithIncumbent) {
  Problem p = RandomProblem(3, 60, 40);
  p.Canonicalize();
  SolveOptions opts;
  opts.time_limit_seconds = 0.0;  // immediate deadline
  const SolveResult r = Solve(p, opts);
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
  EXPECT_FALSE(r.proven_optimal);
  // Incumbent from the root greedy is still a valid selection.
  EXPECT_LE(Memory(p, r.selected), p.budget + 1e-9);
  EXPECT_NEAR(Evaluate(p, r.selected), r.objective, 1e-6);
}

TEST(BranchAndBoundTest, ExpiredDeadlineReportsTimeoutWithIncumbent) {
  Problem p = RandomProblem(5, 60, 40);
  p.Canonicalize();
  SolveOptions opts;
  opts.deadline = rt::Deadline::After(0.0);  // expired on arrival
  const SolveResult r = Solve(p, opts);
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
  EXPECT_FALSE(r.proven_optimal);
  // The greedy root incumbent survives the cut and is feasible.
  EXPECT_LE(Memory(p, r.selected), p.budget + 1e-9);
  EXPECT_NEAR(Evaluate(p, r.selected), r.objective, 1e-6);
}

TEST(BranchAndBoundTest, CancellationStopsSearchWithIncumbent) {
  Problem p = RandomProblem(6, 60, 40);
  p.Canonicalize();
  rt::CancellationToken token;
  token.RequestCancel();
  SolveOptions opts;
  opts.deadline.set_cancellation(&token);
  const SolveResult r = Solve(p, opts);
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
  EXPECT_LE(Memory(p, r.selected), p.budget + 1e-9);
  EXPECT_NEAR(Evaluate(p, r.selected), r.objective, 1e-6);
}

TEST(BranchAndBoundTest, NodeLimitReportsResourceLimit) {
  Problem p = RandomProblem(4, 60, 40);
  p.Canonicalize();
  SolveOptions opts;
  opts.max_nodes = 1;
  const SolveResult r = Solve(p, opts);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceLimit);
}

TEST(BranchAndBoundTest, MipGapStopsEarlyButWithinGap) {
  Problem p = RandomProblem(7, 80, 60);
  p.Canonicalize();
  SolveOptions exact;
  const SolveResult tight = Solve(p, exact);
  ASSERT_TRUE(tight.status.ok());

  SolveOptions relaxed;
  relaxed.mip_gap = 0.05;
  const SolveResult loose = Solve(p, relaxed);
  ASSERT_TRUE(loose.status.ok());
  EXPECT_LE(loose.nodes, tight.nodes);
  // The relaxed objective is within ~5% of the true optimum.
  EXPECT_LE(loose.objective, tight.objective * 1.06);
}

TEST(GreedyTest, RespectsBudget) {
  const Problem p = RandomProblem(9, 50, 30);
  const std::vector<uint32_t> sel = GreedyByDensity(p);
  EXPECT_LE(Memory(p, sel), p.budget + 1e-9);
}

TEST(GreedyTest, TakesTheOnlyBeneficialCandidate) {
  Problem p;
  p.query_weight = {1.0};
  p.base_cost = {10.0};
  p.candidate_costs = {{{0, 1.0}}};
  p.candidate_memory = {1.0};
  p.budget = 10.0;
  EXPECT_EQ(GreedyByDensity(p), std::vector<uint32_t>{0});
}

TEST(GreedyTest, SkipsCannibalizedSecondCandidate) {
  Problem p;
  p.query_weight = {1.0};
  p.base_cost = {10.0};
  p.candidate_costs = {{{0, 1.0}}, {{0, 2.0}}};
  p.candidate_memory = {1.0, 1.0};
  p.budget = 10.0;
  // After taking candidate 0, candidate 1 has zero marginal benefit.
  EXPECT_EQ(GreedyByDensity(p), std::vector<uint32_t>{0});
}

// Property sweep: exact optimality vs brute force on random instances.
class BnbOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BnbOptimalityTest, MatchesBruteForce) {
  Problem p = RandomProblem(GetParam(), /*queries=*/12, /*candidates=*/10);
  const double brute = BruteForceOptimum(p);
  p.Canonicalize();
  const SolveResult r = Solve(p);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_NEAR(r.objective, brute, 1e-6) << "seed=" << GetParam();
  EXPECT_LE(Memory(p, r.selected), p.budget + 1e-9);
  EXPECT_NEAR(Evaluate(p, r.selected), r.objective, 1e-6);
  // The reported bound brackets the optimum.
  EXPECT_LE(r.best_bound, r.objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbOptimalityTest,
                         ::testing::Range<uint64_t>(1, 25));

// Property sweep on instances too large for 2^K: the solver's selection is
// feasible and priced right, and no feasible selection beats it — neither
// the density greedy, nor a large random sample, nor any selection one add,
// drop or swap away.
class BnbRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BnbRandomTest, BeatsRandomFeasibleSamples) {
  Problem p = RandomProblem(GetParam(), /*queries=*/40, /*candidates=*/28);
  p.Canonicalize();
  const SolveResult r = Solve(p);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_LE(Memory(p, r.selected), p.budget + 1e-9);
  EXPECT_NEAR(Evaluate(p, r.selected), r.objective, 1e-6);
  EXPECT_LE(r.best_bound, r.objective + 1e-9);
  EXPECT_LE(r.objective, Evaluate(p, GreedyByDensity(p)) + 1e-9);

  // A random feasible selection: visit the candidates in shuffled order and
  // keep each one with probability 0.7 if it still fits.
  Rng rng(GetParam() + 1000);
  std::vector<uint32_t> order(p.num_candidates());
  std::iota(order.begin(), order.end(), 0u);
  for (int sample = 0; sample < 2000; ++sample) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    std::vector<uint32_t> selection;
    double used = 0.0;
    for (uint32_t k : order) {
      if (rng.NextDouble() < 0.7 && used + p.candidate_memory[k] <= p.budget) {
        selection.push_back(k);
        used += p.candidate_memory[k];
      }
    }
    EXPECT_GE(Evaluate(p, selection), r.objective - 1e-6)
        << "seed=" << GetParam() << " sample=" << sample;
  }

  // Every feasible selection one add, drop or swap away from the solver's.
  std::vector<uint32_t> outside;
  for (uint32_t k = 0; k < p.num_candidates(); ++k) {
    if (std::find(r.selected.begin(), r.selected.end(), k) ==
        r.selected.end()) {
      outside.push_back(k);
    }
  }
  const auto expect_no_better = [&](const std::vector<uint32_t>& neighbour) {
    if (Memory(p, neighbour) > p.budget) return;
    EXPECT_GE(Evaluate(p, neighbour), r.objective - 1e-6)
        << "seed=" << GetParam();
  };
  for (size_t i = 0; i <= r.selected.size(); ++i) {
    std::vector<uint32_t> base = r.selected;
    if (i < base.size()) {
      base.erase(base.begin() + static_cast<std::ptrdiff_t>(i));
      expect_no_better(base);
    }
    for (uint32_t k : outside) {
      std::vector<uint32_t> neighbour = base;
      neighbour.push_back(k);
      expect_no_better(neighbour);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbRandomTest,
                         ::testing::Range<uint64_t>(1, 13));

// Property sweep for the density greedy on its own: its selection is
// sorted, duplicate-free and within budget; it is maximal (no affordable
// candidate it left out still lowers the objective); and it never beats the
// exact optimum.
class GreedyRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyRandomTest, FeasibleMaximalAndNeverBelowOptimum) {
  Problem p = RandomProblem(GetParam() + 100, /*queries=*/30,
                            /*candidates=*/20);
  p.Canonicalize();
  const std::vector<uint32_t> greedy = GreedyByDensity(p);
  EXPECT_TRUE(std::is_sorted(greedy.begin(), greedy.end()));
  EXPECT_EQ(std::adjacent_find(greedy.begin(), greedy.end()), greedy.end());
  const double used = Memory(p, greedy);
  EXPECT_LE(used, p.budget + 1e-9);

  const double greedy_cost = Evaluate(p, greedy);
  for (uint32_t k = 0; k < p.num_candidates(); ++k) {
    if (std::binary_search(greedy.begin(), greedy.end(), k)) continue;
    if (used + p.candidate_memory[k] > p.budget) continue;
    std::vector<uint32_t> extended = greedy;
    extended.push_back(k);
    EXPECT_GE(Evaluate(p, extended), greedy_cost - 1e-6)
        << "seed=" << GetParam() << " k=" << k;
  }

  const SolveResult exact = Solve(p);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_GE(greedy_cost, exact.objective - 1e-9) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyRandomTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace idxsel::mip
