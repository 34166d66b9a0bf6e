#include "engine/executor.h"

#include <algorithm>

#include "common/check.h"

namespace idxsel::engine {
namespace {

/// Rows per block of the first predicate's full-column pass. Each block
/// gets a branch-free match count, and only a block with a match is read
/// again to collect its positions. GCC 12 at -O3 vectorizes the count
/// loop from 32 rows up; a 16-row loop is unrolled and left scalar.
constexpr size_t kScanBlock = 32;

/// Keeps, in order, the positions whose row satisfies `p`: a branch-free
/// store-and-advance in place. Every position read counts as touched.
void FilterPositions(const ColumnTable& table, const Predicate& p,
                     std::vector<uint32_t>* positions,
                     uint64_t* rows_touched) {
  const uint32_t* const column = table.column(p.column).data();
  const uint32_t value = p.value;
  uint32_t* const rows = positions->data();
  const size_t n = positions->size();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    rows[kept] = r;
    kept += column[r] == value ? 1 : 0;
  }
  positions->resize(kept);
  *rows_touched += n;
}

}  // namespace

ExecutionResult Executor::ScanOnly(
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

  // The first predicate reads the full column, a block at a time: the
  // match count vectorizes, and a selective predicate leaves most blocks
  // without a second read.
  const std::vector<uint32_t>& column = table_->column(order.front().column);
  const uint32_t value = order.front().value;
  const uint32_t* const values = column.data();
  const size_t n = column.size();
  const size_t blocked = n - n % kScanBlock;
  std::vector<uint32_t> positions;
  for (size_t base = 0; base < blocked; base += kScanBlock) {
    const uint32_t* const block = values + base;
    uint32_t hits = 0;
    for (size_t i = 0; i < kScanBlock; ++i) {
      hits += block[i] == value ? 1u : 0u;
    }
    if (hits == 0) continue;
    uint32_t matched[kScanBlock] = {};
    size_t kept = 0;
    for (size_t i = 0; i < kScanBlock; ++i) {
      matched[kept] = static_cast<uint32_t>(base + i);
      kept += block[i] == value ? 1 : 0;
    }
    positions.insert(positions.end(), matched, matched + kept);
  }
  for (size_t i = blocked; i < n; ++i) {
    if (values[i] == value) positions.push_back(static_cast<uint32_t>(i));
  }

  ExecutionResult result{0, n};
  for (auto p = order.begin() + 1; p != order.end() && !positions.empty();
       ++p) {
    FilterPositions(*table_, *p, &positions, &result.rows_touched);
  }
  result.matches = positions.size();
  return result;
}

size_t Executor::CoverablePrefix(const std::vector<Predicate>& predicates,
                                 const CompositeIndex& index) {
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

ExecutionResult Executor::WithIndex(const std::vector<Predicate>& predicates,
                                    const CompositeIndex& index) const {
  const size_t prefix_len = CoverablePrefix(predicates, index);
  IDXSEL_CHECK_GE(prefix_len, 1u);
  const auto key_begin = index.columns().begin();
  const auto key_end = key_begin + static_cast<long>(prefix_len);

  // The probe key is staged in the position buffer, which the probe run
  // then overwrites: the span Probe returns aliases the index, not the key.
  std::vector<uint32_t> positions(prefix_len);
  for (size_t u = 0; u < prefix_len; ++u) {
    const uint32_t key_col = index.columns()[u];
    const auto it =
        std::find_if(predicates.begin(), predicates.end(),
                     [&](const Predicate& p) { return p.column == key_col; });
    positions[u] = it->value;
  }
  const std::span<const uint32_t> run = index.Probe(positions);
  positions.assign(run.begin(), run.end());
  // A run is ordered by the key columns past the prefix, and by row id
  // within equal keys: a prefix over the whole key is already in row order.
  if (prefix_len < index.key_width()) {
    std::sort(positions.begin(), positions.end());
  }

  ExecutionResult result{0, positions.size()};
  for (const Predicate& p : predicates) {
    if (positions.empty()) break;
    if (std::find(key_begin, key_end, p.column) == key_end) {
      FilterPositions(*table_, p, &positions, &result.rows_touched);
    }
  }
  result.matches = positions.size();
  return result;
}

}  // namespace idxsel::engine
