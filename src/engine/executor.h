// Conjunctive-equality query executor over the column store.
//
// Evaluates a query (a set of column = literal predicates on one table)
// either by pure sequential column scans or by probing one composite index
// for its coverable key prefix and filtering the remainder by position —
// the same one-index-per-query access-path model the paper's evaluations
// use (Example 1(i)).

#ifndef IDXSEL_ENGINE_EXECUTOR_H_
#define IDXSEL_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "engine/column_store.h"
#include "engine/composite_index.h"

namespace idxsel::engine {

/// One equality predicate: table column ordinal = value.
struct Predicate {
  uint32_t column = 0;
  uint32_t value = 0;
};

/// Execution outcome; `rows_touched` approximates the memory traffic and
/// guards against the compiler optimizing the scan away.
struct ExecutionResult {
  uint64_t matches = 0;
  uint64_t rows_touched = 0;
};

/// Stateless executor over one table. `distinct_counts` (per column
/// ordinal) drive predicate ordering — most selective first.
class Executor {
 public:
  Executor(const ColumnTable* table, std::vector<uint32_t> distinct_counts)
      : table_(table), distinct_(std::move(distinct_counts)) {}

  /// Full sequential-scan plan: applies predicates most-selective-first
  /// (by ascending estimated selectivity given `distinct` counts). The
  /// first predicate reads its whole column in fixed-size blocks: a
  /// branch-free match count per block, and a second, collecting read only
  /// of a block that matched. The rest filter the surviving positions in
  /// place. `rows_touched` is the column length plus every position a
  /// later predicate reads.
  ExecutionResult ScanOnly(const std::vector<Predicate>& predicates) const;

  /// Index plan: probes `index` with the longest prefix of its key columns
  /// that predicates constrain (>= 1 required), then filters the remaining
  /// predicates over the resulting position list.
  ExecutionResult WithIndex(const std::vector<Predicate>& predicates,
                            const CompositeIndex& index) const;

  /// Length of the index-key prefix the predicates can drive (0 when the
  /// leading key column is unconstrained, i.e. the index is inapplicable).
  static size_t CoverablePrefix(const std::vector<Predicate>& predicates,
                                const CompositeIndex& index);

 private:
  const ColumnTable* table_;
  std::vector<uint32_t> distinct_;
};

}  // namespace idxsel::engine

#endif  // IDXSEL_ENGINE_EXECUTOR_H_
