// The column-store engine's index build and executor as they stood before
// the linear-pass rewrite — a comparator std::sort of the row ids that
// reads every key column through ColumnTable::at, a branchy push_back
// scan of the first predicate's column, and one fresh position vector
// per filter predicate — kept verbatim as the oracle that
// tests/engine_test.cc checks engine::CompositeIndex and engine::Executor
// against. It exists to be obviously the old engine, not fast.
//
// Contract production must meet: for every index, the same row-id
// permutation (hence the same Probe runs and memory_bytes()); for every
// plan, the same ExecutionResult, `matches` and `rows_touched` both.

#ifndef IDXSEL_TESTS_REFERENCE_REFERENCE_ENGINE_H_
#define IDXSEL_TESTS_REFERENCE_REFERENCE_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/column_store.h"
#include "engine/executor.h"

namespace idxsel::reference {

/// engine::CompositeIndex before the radix-sorted build.
class ReferenceIndex {
 public:
  /// Builds the index by sorting the table's row ids.
  ReferenceIndex(const engine::ColumnTable* table,
                 std::vector<uint32_t> columns);

  const std::vector<uint32_t>& columns() const { return columns_; }

  /// The whole row-id permutation, (key..., row) order.
  const std::vector<uint32_t>& sorted_rows() const { return sorted_rows_; }

  void LookupPrefix(std::span<const uint32_t> values,
                    std::vector<uint32_t>* out_rows) const;
  std::span<const uint32_t> Probe(std::span<const uint32_t> values) const;
  size_t memory_bytes() const;

 private:
  const engine::ColumnTable* table_;
  std::vector<uint32_t> columns_;
  std::vector<uint32_t> sorted_rows_;
};

/// engine::Executor before the block-skipping scan and in-place filters.
class ReferenceExecutor {
 public:
  ReferenceExecutor(const engine::ColumnTable* table,
                    std::vector<uint32_t> distinct_counts)
      : table_(table), distinct_(std::move(distinct_counts)) {}

  engine::ExecutionResult ScanOnly(
      const std::vector<engine::Predicate>& predicates) const;
  engine::ExecutionResult WithIndex(
      const std::vector<engine::Predicate>& predicates,
      const ReferenceIndex& index) const;
  static size_t CoverablePrefix(
      const std::vector<engine::Predicate>& predicates,
      const ReferenceIndex& index);

 private:
  const engine::ColumnTable* table_;
  std::vector<uint32_t> distinct_;
};

}  // namespace idxsel::reference

#endif  // IDXSEL_TESTS_REFERENCE_REFERENCE_ENGINE_H_
