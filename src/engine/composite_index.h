// Composite (multi-attribute) secondary index over a ColumnTable.
//
// Implemented as a row-id permutation sorted lexicographically by the index
// columns — the classic position-list secondary index of main-memory column
// stores. Probing an equality predicate on a key prefix is a binary search
// (std::equal_range) returning a contiguous run of row ids.

#ifndef IDXSEL_ENGINE_COMPOSITE_INDEX_H_
#define IDXSEL_ENGINE_COMPOSITE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/column_store.h"

namespace idxsel::engine {

/// Secondary index on an ordered list of column ordinals of one table.
class CompositeIndex {
 public:
  /// Builds the index by sorting the table's row ids.
  CompositeIndex(const ColumnTable* table, std::vector<uint32_t> columns);

  /// Key columns (table ordinals), in index order.
  const std::vector<uint32_t>& columns() const { return columns_; }
  size_t key_width() const { return columns_.size(); }

  /// Appends to `out_rows` the ids of all rows whose key matches `values`
  /// on the first values.size() key columns (an equality prefix probe).
  void LookupPrefix(std::span<const uint32_t> values,
                    std::vector<uint32_t>* out_rows) const;

  /// Row ids matching equality on the first `values.size()` key columns
  /// (a key *prefix*); the returned span aliases the index and is sorted by
  /// the remaining key columns.
  std::span<const uint32_t> Probe(std::span<const uint32_t> values) const;

  /// Bytes consumed: the row-id permutation plus one materialized key copy
  /// per column (mirroring p_k of the analytic model).
  size_t memory_bytes() const;

 private:
  const ColumnTable* table_;
  std::vector<uint32_t> columns_;
  std::vector<uint32_t> sorted_rows_;
};

}  // namespace idxsel::engine

#endif  // IDXSEL_ENGINE_COMPOSITE_INDEX_H_
