// Naive, serial reference implementation of H6 (Algorithm 1 with the
// Remark-1 extensions, the swap-repair pass, and eq. 3's reconfiguration
// term) — the oracle tests/reference_test.cc and the H6 fuzz harness
// check core::SelectRecursive against.
//
// The reference recomputes everything from the definition on every step:
// no incremental best/second-best bookkeeping, no dense kernel, no SIMD,
// no threads, no posting-list pruning of the queries a move can affect.
// It exists to be obviously right, not fast.
//
// Rules (the contract production must meet bit for bit; DESIGN.md,
// "Reference H6"):
//
//   * Costs are read only through the given engine's keyed memo —
//     BaseCost, CostWithIndex, IndexMemory, MaintenancePenalty — never
//     the dense API. Canonical cache keys (query, coverable-prefix set)
//     give both sides the same bits for the same what-if question.
//   * cost_j(I) = min(f_j(0), f_j(k) over applicable k in I).
//   * A move I -> I' has dF = sum over ALL queries j, in ascending id, of
//     b_j * (cost_j(I) - cost_j(I')); value = dF - dR - dM, where dR is
//     the reconfiguration delta (0 without a model) and dM the
//     maintenance-penalty delta; dP = p(after) - p(replaced).
//   * A move is eligible iff value > 1e-9, dP > 0 and P + dP <= A + 1e-9,
//     where P is the running sum of committed dP.
//   * Consideration order: new singles (eligible, ascending attribute),
//     appends (by selection position, then attribute), new pairs, then
//     append pairs. The best move has the highest ratio value/dP, then
//     the lexicographically smaller attribute tuple, then was considered
//     first; the runner-up comes out of the same fold.
//   * Step 2 ranks single-attribute indexes by dF({i}) / max(1, p_i),
//     ties broken by attribute id; the n best stay eligible.
//   * For prune and swap repair, a query is owned by the lowest-position
//     selected index attaining its minimum cost, if that cost is strictly
//     below f_j(0).
//
// Remark-2 multi-index evaluation is a different cost model and is not
// covered.

#ifndef IDXSEL_TESTS_REFERENCE_REFERENCE_H6_H_
#define IDXSEL_TESTS_REFERENCE_REFERENCE_H6_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/recursive_selector.h"
#include "costmodel/index.h"
#include "costmodel/what_if.h"

namespace idxsel::reference {

/// What the reference decides; the fields mirror core::RecursiveResult.
struct ReferenceResult {
  costmodel::IndexConfig selection;
  double objective = 0.0;  ///< F + maintenance of the final selection.
  double memory = 0.0;     ///< Running P after the last step.
  std::vector<core::ConstructionStep> trace;
  std::vector<core::ConstructionStep> runners_up;
};

/// Runs the reference H6 against `engine` under `options`. Honors budget,
/// max_steps, n_best_singles, prune_unused, pair_steps, max_index_width,
/// min_ratio, swap_repair, existing and reconfiguration; ignores threads
/// and deadline. `options.reconfiguration` should be bound to `engine`.
ReferenceResult ReferenceH6(costmodel::WhatIfEngine& engine,
                            const core::RecursiveOptions& options);

/// A production answer in the shape the comparison needs.
struct Answer {
  costmodel::IndexConfig selection;
  double objective = 0.0;
  double memory = 0.0;
  std::vector<core::ConstructionStep> trace;
  /// nullptr when the production surface reports no runners-up.
  const std::vector<core::ConstructionStep>* runners_up = nullptr;
};

/// Wraps a SelectRecursive result (borrowing its runners-up).
Answer FromResult(const core::RecursiveResult& result);

/// First difference between a production answer and the reference, ""
/// when they agree: selection, memory, and every trace and runner-up
/// step's kind, before, after, ratio and memory delta bit-equal;
/// objectives within 1e-9 relative.
std::string Diff(const Answer& got, const ReferenceResult& want);

/// Decodes one byte string into a small case, runs serial SelectRecursive
/// and the reference on their own engines over the Appendix-B model, and
/// returns Diff() ("" also when the bytes decode to no query). Encoding,
/// bytes past the end reading as 0:
///   byte 0        tables (1..2)
///   per table     attribute count (1..10), then per attribute one
///                 distinct-value byte and one value-size bit
///   next          query count (1..20); per query: table, width (1..4),
///                 that many attribute picks, a frequency byte and a
///                 write flag
///   next          budget share w = byte / 255
///   next          variant (plain, n_best_singles, max_index_width,
///                 prune_unused, pair_steps, swap_repair, reconfiguration)
///                 and one parameter byte
/// The reconfiguration variant starts from the reference's plain answer
/// at half the budget. Used by tests/fuzz/fuzz_h6_reference.cc and to
/// replay its corpus in tests/reference_test.cc.
std::string CheckEncodedCase(const uint8_t* data, size_t size);

}  // namespace idxsel::reference

#endif  // IDXSEL_TESTS_REFERENCE_REFERENCE_H6_H_
