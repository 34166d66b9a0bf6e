// The paper's reproducible exemplary cost model (Appendix B), made precise.
//
// Costs approximate transferred memory (bytes) in a vector-at-a-time
// columnar engine:
//
//   * Index scan of query j via index k with coverable prefix U(q_j, k):
//       log2(n) + sum_{i in U} a_i * log2(d_i) + 4 * n * prod_{m in U} s_m
//     (B-tree-descent reads, key-column comparisons across the *used*
//     prefix, and writing the 4-byte-per-entry position list of the
//     result). Summing over U rather than all of k makes
//     f_j(k ++ i) == f_j(k) whenever q_j cannot exploit the extension,
//     which is the invariant behind the paper's what-if caching argument
//     (Section II-C / III-A).
//   * Sequential scan of attribute i while a fraction c of rows survive:
//       a_i * n * c + 4 * n * c * s_i
//     after which c <- c * s_i. Unindexed attributes are scanned in
//     ascending-selectivity order (most selective first), per Appendix B(i)5.
//     That order is fixed per query, so the model compiles it once at
//     construction and every cost walks it, skipping covered attributes.
//   * Index memory (Appendix B(ii), verbatim):
//       p_k = ceil(ceil(log2 n) * n / 8) + sum_{i in k} a_i * n.
//   * Budget A(w) = w * sum over all single-attribute indexes of p_{i}
//     (eq. 10).

#ifndef IDXSEL_COSTMODEL_COST_MODEL_H_
#define IDXSEL_COSTMODEL_COST_MODEL_H_

#include <vector>

#include "common/check.h"
#include "costmodel/index.h"
#include "workload/workload.h"

namespace idxsel::costmodel {

/// Tunable constants of the Appendix-B model.
struct CostModelParams {
  /// Bytes per written position-list entry ("written position list elements
  /// amount to 4 bytes").
  double position_list_bytes = 4.0;
};

// Write queries: the paper's model admits updates as query types (Section
// II-A: "a query q_j can be of various type, such as a selection, join,
// insert, update"). A write template pays a base cost to locate and write
// its attributes, plus *maintenance* on every selected index that covers a
// written attribute (entry relocation in the sorted structure). The
// maintenance term is modular in the selection, so every solver handles it
// exactly (see mip::Problem::candidate_penalty).

/// Analytic cost model over a fixed workload. Construction compiles the
/// workload into flat per-query tables (scan order, f_j(0)) and a
/// per-attribute selectivity table in one pass over the queries; after
/// that the model is immutable, and all methods are const and
/// thread-compatible. The workload's structure (attributes, queries) must
/// not change while the model lives; frequencies may.
class CostModel {
 public:
  explicit CostModel(const workload::Workload* workload,
                     CostModelParams params = {});

  const workload::Workload& workload() const { return *workload_; }

  // -- Memory ---------------------------------------------------------------

  /// p_k: bytes consumed by index k.
  double IndexMemory(const Index& k) const;

  /// Sum of p_{i} over all single-attribute indexes (denominator of eq. 10).
  double TotalSingleAttributeMemory() const;

  /// A(w) = w * TotalSingleAttributeMemory().
  double Budget(double w) const { return w * total_single_attr_memory_; }

  // -- Query costs ------------------------------------------------------------

  /// f_j(0): cost of query j with no index (pure sequential scans);
  /// compiled at construction.
  double UnindexedCost(QueryId j) const {
    IDXSEL_DCHECK(j < base_cost_.size());
    return base_cost_[j];
  }

  /// f_j(k): cost of query j when exactly index k may be used (plus
  /// sequential scans for the uncovered attributes). If k is not applicable
  /// (leading attribute not in q_j, or different table) this equals f_j(0).
  double CostWithIndex(QueryId j, const Index& k) const;

  /// f_j(I*) in the "one index only" setting of Example 1(i):
  /// min(f_j(0), min_{k in I*} f_j(k)).
  double CostOneIndex(QueryId j, const IndexConfig& config) const;

  /// f_j(I*) in the general multi-index setting (Appendix B(i)): greedily
  /// applies the applicable index with the largest selectivity reduction
  /// over the still-uncovered attributes, then scans leftovers.
  double CostMultiIndex(QueryId j, const IndexConfig& config) const;

  // -- Applicability -----------------------------------------------------------

  /// True iff l(k) is in q_j (the paper's condition defining I_j).
  bool Applicable(QueryId j, const Index& k) const;

  // -- Writes -----------------------------------------------------------------

  /// Per-execution maintenance cost index k incurs from write query j:
  /// 0 when j is a read, on another table, or touches none of k's
  /// attributes; otherwise locate + entry rewrite
  /// (log2(n) + sum_{i in k} a_i + position-list entry).
  double MaintenanceCost(QueryId j, const Index& k) const;

 private:
  /// Sum of the sequential-scan terms over q_j's scan order, starting
  /// from surviving fraction `c` on a table with `rows` rows; attributes
  /// for which skip(a) holds are not scanned. The terms are summed on
  /// their own, from 0, so a caller adds the sum to a probe cost exactly
  /// as it would add one scan's total.
  template <typename Skip>
  double ScanCost(QueryId j, double c, double rows, Skip&& skip) const;

  /// Index-probe cost of k with coverable prefix length `prefix_len` on a
  /// table with `rows` rows, given surviving fraction `c`; also returns the
  /// new surviving fraction through `c`.
  double IndexProbeCost(const Index& k, size_t prefix_len, double rows,
                        double* c) const;

  const workload::Workload* workload_;
  CostModelParams params_;
  double total_single_attr_memory_;
  /// s_i = 1/d_i per attribute.
  std::vector<double> selectivity_;
  /// Every query's attributes in scan order — ascending s_i, then id —
  /// packed back to back; q_j's run starts at scan_begin_[j] and has
  /// |q_j| entries.
  std::vector<AttributeId> scan_order_;
  std::vector<size_t> scan_begin_;
  /// f_j(0) per query.
  std::vector<double> base_cost_;
};

}  // namespace idxsel::costmodel

#endif  // IDXSEL_COSTMODEL_COST_MODEL_H_
