#include "kernel/kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/telemetry.h"

namespace idxsel::kernel {

// -- IndexArena -------------------------------------------------------------

IndexArena::~IndexArena() {
  blocks_.ForEach([](Entry* block) { delete[] block; });
}

const AttributeId* IndexArena::PoolCopy(const AttributeId* attrs,
                                        uint32_t width) {
  IDXSEL_DCHECK(width > kInlineAttrs);
  IDXSEL_CHECK_LE(width, kMaxWidth);
  if (pool_.empty() || pool_used_ + width > kMaxWidth) {
    pool_.push_back(std::make_unique<AttributeId[]>(kMaxWidth));
    pool_used_ = 0;
  }
  AttributeId* dst = pool_.back().get() + pool_used_;
  std::memcpy(dst, attrs, width * sizeof(AttributeId));
  pool_used_ += width;
  return dst;
}

IndexId IndexArena::FindLocked(const AttributeId* attrs, uint32_t width,
                               uint64_t hash) const {
  auto [it, end] = interned_.equal_range(hash);
  for (; it != end; ++it) {
    const Entry& e = entry(it->second);
    if (e.width == width &&
        std::memcmp(e.attrs, attrs, width * sizeof(AttributeId)) == 0) {
      return it->second;
    }
  }
  return kInvalidIndexId;
}

IndexId IndexArena::Find(const AttributeId* attrs, uint32_t width) const {
  const uint64_t h = TupleHash(attrs, width);
  common::MutexLock lock(&mu_);
  return FindLocked(attrs, width, h);
}

IndexId IndexArena::Intern(const AttributeId* attrs, uint32_t width) {
  IDXSEL_DCHECK(width > 0);
  const uint64_t h = TupleHash(attrs, width);
  common::MutexLock lock(&mu_);
  if (const IndexId found = FindLocked(attrs, width, h);
      found != kInvalidIndexId) {
    return found;
  }

  const size_t n = count_.load(std::memory_order_relaxed);
  IDXSEL_CHECK_LT(n, kMaxBlocks * kBlockSize);
  const size_t block_idx = n >> kBlockShift;
  Entry* block = blocks_.Get(block_idx);
  if (block == nullptr) {
    block = new Entry[kBlockSize];
    blocks_.Set(block_idx, block);
  }
  Entry& e = block[n & kBlockMask];
#ifndef NDEBUG
  // Index tuples never repeat an attribute; a duplicate would make the
  // precomputed mask lossy in a way audit::InvariantAuditor flags later —
  // catch it at the intern site where the caller is still on the stack.
  for (uint32_t u = 0; u < width; ++u) {
    for (uint32_t v = u + 1; v < width; ++v) {
      IDXSEL_DCHECK(attrs[u] != attrs[v]);
    }
  }
#endif
  e.width = width;
  e.mask = MaskOf(attrs, width);
  if (width <= kInlineAttrs) {
    std::memcpy(e.inline_attrs, attrs, width * sizeof(AttributeId));
    e.attrs = e.inline_attrs;
  } else {
    e.attrs = PoolCopy(attrs, width);
  }

  const IndexId id = static_cast<IndexId>(n);
  // Telemetry slot, not obs: the kernel sits beside obs in the layering
  // DAG and must not include its headers (common/telemetry.h, L3 lint).
  telemetry::Add(telemetry::Slot::kKernelArenaInterns);
  interned_.emplace(h, id);
  // Publish the count last: readers that observe id < size() see a fully
  // initialized entry (release store pairs with entry()'s acquire load).
  count_.store(n + 1, std::memory_order_release);
  return id;
}

IndexId IndexArena::InternAppend(IndexId base, AttributeId extra) {
  const Entry& b = entry(base);
  IDXSEL_DCHECK(!Contains(base, extra));
  AttributeId buf[kMaxWidth];
  IDXSEL_CHECK_LT(b.width, kMaxWidth);
  std::memcpy(buf, b.attrs, b.width * sizeof(AttributeId));
  buf[b.width] = extra;
  return Intern(buf, b.width + 1);
}

bool IndexArena::Less(IndexId a, IndexId b) const {
  const Entry& ea = entry(a);
  const Entry& eb = entry(b);
  return std::lexicographical_compare(ea.attrs, ea.attrs + ea.width, eb.attrs,
                                      eb.attrs + eb.width);
}

// -- DenseValueTable --------------------------------------------------------

DenseValueTable::~DenseValueTable() {
  blocks_.ForEach([](std::atomic<double>* block) { delete[] block; });
}

void DenseValueTable::Put(IndexId id, double value) {
  const size_t block_idx = id >> kBlockShift;
  IDXSEL_CHECK_LT(block_idx, kMaxBlocks);
  std::atomic<double>* block = blocks_.Get(block_idx);
  if (block == nullptr) {
    common::MutexLock lock(&mu_);
    block = blocks_.Get(block_idx);
    if (block == nullptr) {
      block = new std::atomic<double>[kBlockSize];
      for (size_t u = 0; u < kBlockSize; ++u) {
        block[u].store(kUnset(), std::memory_order_relaxed);
      }
      blocks_.Set(block_idx, block);
    }
  }
  block[id & kBlockMask].store(value, std::memory_order_relaxed);
}

void DenseValueTable::Invalidate() {
  blocks_.ForEach([](std::atomic<double>* block) {
    for (size_t u = 0; u < kBlockSize; ++u) {
      block[u].store(kUnset(), std::memory_order_relaxed);
    }
  });
}

// -- DenseCostTable ---------------------------------------------------------

DenseCostTable::~DenseCostTable() {
  blocks_.ForEach([](std::atomic<Row*>* block) { delete[] block; });
}

DenseCostTable::Row* DenseCostTable::EnsureRow(IndexId id, uint32_t row_len) {
  const size_t block_idx = id >> kBlockShift;
  IDXSEL_CHECK_LT(block_idx, kMaxBlocks);
  std::atomic<Row*>* block = blocks_.Get(block_idx);
  if (block == nullptr) {
    common::MutexLock lock(&mu_);
    block = blocks_.Get(block_idx);
    if (block == nullptr) {
      block = new std::atomic<Row*>[kBlockSize];
      for (size_t u = 0; u < kBlockSize; ++u) {
        block[u].store(nullptr, std::memory_order_relaxed);
      }
      blocks_.Set(block_idx, block);
    }
  }
  std::atomic<Row*>& slot = block[id & kBlockMask];
  Row* row = slot.load(std::memory_order_acquire);
  if (row == nullptr) {
    common::MutexLock lock(&mu_);
    row = slot.load(std::memory_order_relaxed);
    if (row == nullptr) {
      auto owned = std::make_unique<Row>();
      owned->len = row_len;
      owned->values = std::make_unique<std::atomic<double>[]>(row_len);
      for (uint32_t u = 0; u < row_len; ++u) {
        owned->values[u].store(DenseValueTable::kUnset(),
                               std::memory_order_relaxed);
      }
      row = owned.get();
      rows_.push_back(std::move(owned));
      slot.store(row, std::memory_order_release);
    }
  }
  IDXSEL_DCHECK(row->len == row_len);
  return row;
}

void DenseCostTable::Put(IndexId id, uint32_t slot, uint32_t row_len,
                         double value) {
  Row* row = EnsureRow(id, row_len);
  IDXSEL_DCHECK(slot < row->len);
  row->values[slot].store(value, std::memory_order_relaxed);
}

bool DenseCostTable::GatherWarm(IndexId id, const uint32_t* slots, size_t n,
                                double* out) const {
  if (n == 0) return true;
  const Row* row = FindRow(id);
  if (row == nullptr) return false;
  for (size_t t = 0; t < n; ++t) {
    IDXSEL_DCHECK(slots[t] < row->len);
    const double v = row->values[slots[t]].load(std::memory_order_relaxed);
    if (std::isnan(v)) return false;
    out[t] = v;
  }
  return true;
}

void DenseCostTable::InheritRow(IndexId from, IndexId to, uint32_t row_len) {
  const Row* src = FindRow(from);
  if (src == nullptr) return;
  Row* dst = EnsureRow(to, row_len);
  IDXSEL_DCHECK(src->len == dst->len);
  const uint32_t n = std::min(src->len, dst->len);
  for (uint32_t u = 0; u < n; ++u) {
    const double v = src->values[u].load(std::memory_order_relaxed);
    if (std::isnan(v)) continue;
    double expected = DenseValueTable::kUnset();
    // Only fill unset slots: affected queries were re-estimated and their
    // fresh costs must win. compare_exchange on NaN works because the
    // sentinel is a single canonical bit pattern stored by this table.
    dst->values[u].compare_exchange_strong(expected, v,
                                           std::memory_order_relaxed);
  }
}

void DenseCostTable::Invalidate() {
  common::MutexLock lock(&mu_);
  for (auto& row : rows_) {
    for (uint32_t u = 0; u < row->len; ++u) {
      row->values[u].store(DenseValueTable::kUnset(),
                           std::memory_order_relaxed);
    }
  }
}

// -- Reductions ---------------------------------------------------------------

double ReduceBenefitIndexed(const double* costs, const uint32_t* qids,
                            const double* best, const double* freq,
                            size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double gain = best[qids[t]] - costs[t];
    // All-ones iff the term is kept. `gain > 0.0 ? term : 0.0` would
    // compile to a compare-and-jump, which mispredicts on ~random gain
    // signs; the AND turns an excluded term into +0.0 without one.
    const uint64_t keep = uint64_t{0} - static_cast<uint64_t>(gain > 0.0);
    acc += std::bit_cast<double>(
        std::bit_cast<uint64_t>(freq[qids[t]] * gain) & keep);
  }
  return acc;
}

double ReduceAppendBenefit(const double* costs, const double* cw,
                           const uint32_t* qids, const double* best,
                           const double* freq, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double new_cost = cw[t] < costs[t] ? cw[t] : costs[t];
    acc += freq[qids[t]] * (best[qids[t]] - new_cost);
  }
  return acc;
}

size_t FilterMasks(const uint64_t* masks, size_t n, uint64_t required,
                   uint32_t* out) {
  size_t count = 0;
  for (size_t t = 0; t < n; ++t) {
    // Unconditional store, advance by the keep bit: no branch per slot.
    out[count] = static_cast<uint32_t>(t);
    count += (required & ~masks[t]) == 0 ? 1u : 0u;
  }
  return count;
}

}  // namespace idxsel::kernel
