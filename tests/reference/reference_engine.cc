#include "reference/reference_engine.h"

#include <algorithm>

#include "common/check.h"

namespace idxsel::reference {

using engine::ColumnTable;
using engine::ExecutionResult;
using engine::Predicate;

ReferenceIndex::ReferenceIndex(const ColumnTable* table,
                               std::vector<uint32_t> columns)
    : table_(table), columns_(std::move(columns)) {
  IDXSEL_CHECK(table_ != nullptr);
  IDXSEL_CHECK(!columns_.empty());
  for (uint32_t c : columns_) IDXSEL_CHECK_LT(c, table_->num_columns());

  sorted_rows_.resize(table_->num_rows());
  for (uint32_t r = 0; r < sorted_rows_.size(); ++r) sorted_rows_[r] = r;
  std::sort(sorted_rows_.begin(), sorted_rows_.end(),
            [&](uint32_t x, uint32_t y) {
              for (uint32_t c : columns_) {
                const uint32_t vx = table_->at(c, x);
                const uint32_t vy = table_->at(c, y);
                if (vx != vy) return vx < vy;
              }
              return x < y;  // stable row order within equal keys
            });
}

std::span<const uint32_t> ReferenceIndex::Probe(
    std::span<const uint32_t> values) const {
  IDXSEL_CHECK_GE(values.size(), 1u);
  IDXSEL_CHECK_LE(values.size(), columns_.size());
  // Lexicographic comparison of a row's key prefix against `values`:
  // -1 below, 0 equal, +1 above.
  auto compare = [&](uint32_t row) {
    for (size_t u = 0; u < values.size(); ++u) {
      const uint32_t v = table_->at(columns_[u], row);
      if (v < values[u]) return -1;
      if (v > values[u]) return 1;
    }
    return 0;
  };
  const auto lower = std::partition_point(
      sorted_rows_.begin(), sorted_rows_.end(),
      [&](uint32_t row) { return compare(row) < 0; });
  const auto upper = std::partition_point(
      lower, sorted_rows_.end(),
      [&](uint32_t row) { return compare(row) <= 0; });
  return {sorted_rows_.data() + (lower - sorted_rows_.begin()),
          static_cast<size_t>(upper - lower)};
}

void ReferenceIndex::LookupPrefix(std::span<const uint32_t> values,
                                  std::vector<uint32_t>* out_rows) const {
  const std::span<const uint32_t> range = Probe(values);
  out_rows->insert(out_rows->end(), range.begin(), range.end());
}

size_t ReferenceIndex::memory_bytes() const {
  return sorted_rows_.size() * sizeof(uint32_t) * (1 + columns_.size());
}

namespace {

/// Filters `positions` by the remaining predicates, touching every surviving
/// position once per predicate (vector-at-a-time).
ExecutionResult FilterPositions(const ColumnTable& table,
                                std::vector<uint32_t> positions,
                                const std::vector<Predicate>& predicates,
                                uint64_t touched_so_far) {
  ExecutionResult result;
  result.rows_touched = touched_so_far;
  for (const Predicate& p : predicates) {
    const std::vector<uint32_t>& column = table.column(p.column);
    std::vector<uint32_t> next;
    next.reserve(positions.size());
    for (uint32_t r : positions) {
      ++result.rows_touched;
      if (column[r] == p.value) next.push_back(r);
    }
    positions = std::move(next);
    if (positions.empty()) break;
  }
  result.matches = positions.size();
  return result;
}

}  // namespace

ExecutionResult ReferenceExecutor::ScanOnly(
    const std::vector<Predicate>& predicates) const {
  IDXSEL_CHECK(!predicates.empty());
  // Most selective predicate first (highest distinct count), so the
  // intermediate position lists shrink as quickly as possible.
  std::vector<Predicate> order = predicates;
  std::sort(order.begin(), order.end(),
            [&](const Predicate& x, const Predicate& y) {
              const uint32_t dx = distinct_[x.column];
              const uint32_t dy = distinct_[y.column];
              if (dx != dy) return dx > dy;
              return x.column < y.column;
            });

  // First predicate scans the full column.
  ExecutionResult result;
  const Predicate& first = order.front();
  const std::vector<uint32_t>& column = table_->column(first.column);
  std::vector<uint32_t> positions;
  for (uint32_t r = 0; r < column.size(); ++r) {
    ++result.rows_touched;
    if (column[r] == first.value) positions.push_back(r);
  }
  const std::vector<Predicate> rest(order.begin() + 1, order.end());
  ExecutionResult filtered =
      FilterPositions(*table_, std::move(positions), rest,
                      result.rows_touched);
  return filtered;
}

size_t ReferenceExecutor::CoverablePrefix(
    const std::vector<Predicate>& predicates, const ReferenceIndex& index) {
  size_t len = 0;
  for (uint32_t key_col : index.columns()) {
    const bool constrained =
        std::any_of(predicates.begin(), predicates.end(),
                    [&](const Predicate& p) { return p.column == key_col; });
    if (!constrained) break;
    ++len;
  }
  return len;
}

ExecutionResult ReferenceExecutor::WithIndex(
    const std::vector<Predicate>& predicates,
    const ReferenceIndex& index) const {
  const size_t prefix_len = CoverablePrefix(predicates, index);
  IDXSEL_CHECK_GE(prefix_len, 1u);

  std::vector<uint32_t> key(prefix_len);
  for (size_t u = 0; u < prefix_len; ++u) {
    const uint32_t key_col = index.columns()[u];
    const auto it =
        std::find_if(predicates.begin(), predicates.end(),
                     [&](const Predicate& p) { return p.column == key_col; });
    key[u] = it->value;
  }
  std::vector<uint32_t> positions;
  index.LookupPrefix(key, &positions);
  std::sort(positions.begin(), positions.end());

  std::vector<Predicate> rest;
  for (const Predicate& p : predicates) {
    const bool covered =
        std::find(index.columns().begin(),
                  index.columns().begin() + static_cast<long>(prefix_len),
                  p.column) !=
        index.columns().begin() + static_cast<long>(prefix_len);
    if (!covered) rest.push_back(p);
  }
  const uint64_t probed = positions.size();
  return FilterPositions(*table_, std::move(positions), rest,
                         /*touched_so_far=*/probed);
}

}  // namespace idxsel::reference
