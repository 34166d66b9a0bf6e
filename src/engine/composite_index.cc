#include "engine/composite_index.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace idxsel::engine {
namespace {

constexpr uint32_t kDigitBits = 16;
constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;

/// One stable counting pass: reorders `rows` by the 16-bit digit of
/// `column` at `shift`, keeping the current order within equal digits.
/// `buckets` bounds the digits that occur; `counts` (grown to at most
/// 2^16 + 1 counters) and `out` are scratch.
void CountingPass(const std::vector<uint32_t>& column, uint32_t shift,
                  uint32_t buckets, std::vector<uint32_t>* counts,
                  std::vector<uint32_t>* rows, std::vector<uint32_t>* out) {
  if (counts->size() < buckets + 1) counts->resize(buckets + 1);
  uint32_t* const offset = counts->data();
  std::fill(offset, offset + buckets + 1, 0u);
  // The histogram does not depend on the row order: read the column
  // front to back.
  for (const uint32_t v : column) ++offset[((v >> shift) & kDigitMask) + 1];
  std::partial_sum(offset, offset + buckets + 1, offset);
  uint32_t* const dst = out->data();
  for (const uint32_t r : *rows) {
    dst[offset[(column[r] >> shift) & kDigitMask]++] = r;
  }
  rows->swap(*out);
}

}  // namespace

CompositeIndex::CompositeIndex(const ColumnTable* table,
                               std::vector<uint32_t> columns)
    : table_(table), columns_(std::move(columns)) {
  IDXSEL_CHECK(table_ != nullptr);
  IDXSEL_CHECK(!columns_.empty());
  for (uint32_t c : columns_) IDXSEL_CHECK_LT(c, table_->num_columns());

  // LSD radix sort: the last key column's passes first, so the leading
  // column's decide, and stable passes keep ties in row-id order.
  sorted_rows_.resize(table_->num_rows());
  std::iota(sorted_rows_.begin(), sorted_rows_.end(), 0u);
  std::vector<uint32_t> scratch(sorted_rows_.size());
  std::vector<uint32_t> counts;
  for (auto c = columns_.rbegin(); c != columns_.rend(); ++c) {
    const std::vector<uint32_t>& column = table_->column(*c);
    const uint32_t max_value = *std::max_element(column.begin(), column.end());
    CountingPass(column, 0, std::min(max_value, kDigitMask) + 1, &counts,
                 &sorted_rows_, &scratch);
    if (max_value > kDigitMask) {  // the high digit
      CountingPass(column, kDigitBits, (max_value >> kDigitBits) + 1,
                   &counts, &sorted_rows_, &scratch);
    }
  }
}

std::span<const uint32_t> CompositeIndex::Probe(
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

void CompositeIndex::LookupPrefix(std::span<const uint32_t> values,
                                  std::vector<uint32_t>* out_rows) const {
  const std::span<const uint32_t> range = Probe(values);
  out_rows->insert(out_rows->end(), range.begin(), range.end());
}

size_t CompositeIndex::memory_bytes() const {
  return sorted_rows_.size() * sizeof(uint32_t) * (1 + columns_.size());
}

}  // namespace idxsel::engine
