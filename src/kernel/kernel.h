// idxsel::kernel — flat cost-evaluation substrate.
//
// The paper's scalability argument (Sections I-A, III-A) is that each H6
// construction step touches few queries; this module makes each *touch*
// cheap. Three ingredients, shared by the selector, the heuristics, and
// the MIP problem builder through WhatIfEngine's dense fast path:
//
//   * IndexArena — interns ordered attribute tuples into dense IndexIds
//     (the selectors' indexes, and the canonical tuples WhatIfEngine keys
//     its cost cache by).
//     Tuples live in one contiguous pool (small-buffer: tuples of up to
//     kInlineAttrs attributes are stored inline in their arena entry), and
//     every entry precomputes a 64-bit attribute mask, so the hot-path
//     Index operations (equality, containment, full-cover tests,
//     tie-break comparisons) become integer ops on flat memory instead of
//     std::vector traffic and FNV hashing.
//   * QueryMasks — per-query 64-bit attribute masks built once per
//     workload. Combined with the workload's attribute→query posting
//     lists (Workload::queries_with), a candidate move only visits the
//     queries whose mask intersects the affected attribute set.
//   * Dense cost and value tables addressed by interned id, which
//     WhatIfEngine keeps in front of its keyed caches.
//
// Below them sit the selector's inner loops over those layouts: the
// benefit reductions and the posting-mask filter (end of this file).
//
// Masks are *exact* when the workload has at most 64 attributes (bit i
// set iff attribute i present) and *conservative* otherwise (bit i%64):
// a clear bit proves absence, a set bit must be confirmed against the
// attribute list. All mask-based filters in the pipeline only ever use
// masks in this one-sided way, which is why the kernel changes layout,
// never answers — see doc/cost_model.md ("The evaluation kernel").
//
// Thread-safety: interning takes a mutex; reads of interned entries are
// lock-free and valid for any id obtained by this thread or published to
// it with external synchronization (the thread start and join of
// exec::ParallelFor provide exactly that). Entry storage is chunked with
// stable addresses, so growth never invalidates concurrent readers.

#ifndef IDXSEL_KERNEL_KERNEL_H_
#define IDXSEL_KERNEL_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "workload/workload.h"

namespace idxsel::kernel {

using workload::AttributeId;
using workload::QueryId;

/// Dense id of an interned attribute tuple; valid within one IndexArena.
using IndexId = uint32_t;
inline constexpr IndexId kInvalidIndexId = ~IndexId{0};

// -- Attribute masks --------------------------------------------------------

/// Bit of attribute `a` in a 64-bit mask (exact for a < 64, folded mod 64
/// otherwise).
inline uint64_t AttrBit(AttributeId a) { return uint64_t{1} << (a & 63u); }

/// Mask of an attribute span.
inline uint64_t MaskOf(const AttributeId* attrs, size_t n) {
  uint64_t mask = 0;
  for (size_t u = 0; u < n; ++u) mask |= AttrBit(attrs[u]);
  return mask;
}

/// Per-query attribute masks of one workload, built once. `exact()` is
/// true when the workload has at most 64 attributes; then a mask *is* the
/// attribute set. Otherwise masks are conservative filters: subset /
/// membership tests that fail on the mask are definitive, successes must
/// be confirmed against the sorted attribute list.
///
/// Construction is allocation-lean by contract: masks are computed from
/// the workload's attribute spans in place (one reservation for the
/// per-query table, two for the posting-order mirror below — never a
/// per-query temporary), which bench_kernel asserts by counting global
/// allocations across two workload sizes.
class QueryMasks {
 public:
  explicit QueryMasks(const workload::Workload& w)
      : exact_(w.num_attributes() <= 64) {
    masks_.reserve(w.num_queries());
    for (QueryId j = 0; j < w.num_queries(); ++j) {
      const auto& attrs = w.query(j).attributes;
      masks_.push_back(MaskOf(attrs.data(), attrs.size()));
    }
    // Posting-order mirror: for every attribute, the masks of its posting
    // list (Workload::queries_with) packed contiguously, CSR-style. The
    // selector's affected-query filters walk posting lists, so this is
    // the layout FilterMasks streams — one sequential load per slot
    // instead of a per-query indirection through masks_.
    posting_offsets_.reserve(w.num_attributes() + 1);
    size_t total = 0;
    for (AttributeId a = 0; a < w.num_attributes(); ++a) {
      posting_offsets_.push_back(total);
      total += w.queries_with(a).size();
    }
    posting_offsets_.push_back(total);
    posting_masks_.reserve(total);
    for (AttributeId a = 0; a < w.num_attributes(); ++a) {
      for (const QueryId j : w.queries_with(a)) {
        posting_masks_.push_back(masks_[j]);
      }
    }
  }

  uint64_t mask(QueryId j) const { return masks_[j]; }
  bool exact() const { return exact_; }

  /// Definitive "attribute not in query" test; a false return means
  /// *maybe present* unless exact().
  bool DefinitelyAbsent(QueryId j, AttributeId a) const {
    return (masks_[j] & AttrBit(a)) == 0;
  }

  /// Masks of attribute `a`'s posting list in posting order — element s
  /// is mask(queries_with(a)[s]). Contiguous: feed to FilterMasks.
  const uint64_t* posting_masks(AttributeId a) const {
    return posting_masks_.data() + posting_offsets_[a];
  }

  /// Length of the posting_masks(a) span (== queries_with(a).size()).
  size_t posting_size(AttributeId a) const {
    return posting_offsets_[a + 1] - posting_offsets_[a];
  }

 private:
  std::vector<uint64_t> masks_;
  std::vector<uint64_t> posting_masks_;  ///< CSR payload, posting order
  std::vector<size_t> posting_offsets_;  ///< CSR offsets, num_attributes+1
  bool exact_;
};

// -- Block directory ----------------------------------------------------------

/// Grow-only directory of atomic block pointers, the spine of the arena
/// and the dense tables. It starts small and doubles on demand, so an
/// engine that never looks anything up costs a few bytes instead of a
/// zero-filled array sized for the capacity cap.
///
/// Readers take one acquire load of the current directory plus a bounds
/// check; a block beyond it reads as absent. Set() runs under the owning
/// table's mutex: growth copies the slots into a directory twice the size
/// and publishes it with a release store. A concurrent reader may still
/// hold a retired directory — it sees the blocks published before the
/// copy, exactly what it would have seen a moment earlier — so retired
/// directories are freed only in the destructor. Blocks themselves are
/// owned by the table.
template <typename T>
class BlockDirectory {
 public:
  BlockDirectory() : current_(Retain(std::make_unique<Dir>(kInitialSlots))) {}
  BlockDirectory(const BlockDirectory&) = delete;
  BlockDirectory& operator=(const BlockDirectory&) = delete;

  /// Block `b`, or nullptr when it was never set.
  T* Get(size_t b) const {
    const Dir* dir = current_.load(std::memory_order_acquire);
    if (b >= dir->size) return nullptr;
    return dir->slots[b].load(std::memory_order_acquire);
  }

  /// Publishes block `b`, growing the directory to hold it. Callers
  /// serialize Set() under their mutex.
  void Set(size_t b, T* block) {
    Dir* dir = current_.load(std::memory_order_relaxed);
    if (b >= dir->size) {
      size_t size = dir->size;
      while (size <= b) size *= 2;
      auto grown = std::make_unique<Dir>(size);
      for (size_t u = 0; u < dir->size; ++u) {
        grown->slots[u].store(dir->slots[u].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
      }
      dir = Retain(std::move(grown));
      current_.store(dir, std::memory_order_release);
    }
    dir->slots[b].store(block, std::memory_order_release);
  }

  /// Calls f(block) for every set block, in index order. Not safe
  /// concurrently with Set().
  template <typename F>
  void ForEach(F f) const {
    const Dir* dir = current_.load(std::memory_order_acquire);
    for (size_t u = 0; u < dir->size; ++u) {
      if (T* block = dir->slots[u].load(std::memory_order_acquire)) f(block);
    }
  }

 private:
  static constexpr size_t kInitialSlots = 4;

  struct Dir {
    explicit Dir(size_t n)
        : size(n), slots(std::make_unique<std::atomic<T*>[]>(n)) {
      for (size_t u = 0; u < n; ++u) {
        slots[u].store(nullptr, std::memory_order_relaxed);
      }
    }
    size_t size;
    std::unique_ptr<std::atomic<T*>[]> slots;
  };

  Dir* Retain(std::unique_ptr<Dir> dir) {
    dirs_.push_back(std::move(dir));
    return dirs_.back().get();
  }

  /// Every directory ever published; the last one is current.
  std::vector<std::unique_ptr<Dir>> dirs_;
  std::atomic<Dir*> current_;
};

// -- Index arena ------------------------------------------------------------

/// Interns ordered attribute tuples; assigns dense, never-reused ids.
///
/// Storage is chunked (kBlockSize entries per block, published through a
/// grow-only BlockDirectory) so entry addresses are stable for the arena's
/// lifetime and concurrent readers never race with growth. Tuples of up
/// to kInlineAttrs attributes are stored inline in the entry; wider ones
/// live in the arena's contiguous overflow pool (also chunked, also
/// address-stable).
class IndexArena {
 public:
  static constexpr uint32_t kInlineAttrs = 4;
  /// Widest tuple the arena stores, and the size of one overflow-pool
  /// chunk; callers may stage a tuple in a stack buffer this wide.
  static constexpr uint32_t kMaxWidth = 4096;

  IndexArena() = default;
  ~IndexArena();
  IndexArena(const IndexArena&) = delete;
  IndexArena& operator=(const IndexArena&) = delete;

  /// Interns the ordered tuple `attrs[0..width)`; returns its dense id.
  /// The same tuple always maps to the same id. Thread-safe.
  IndexId Intern(const AttributeId* attrs, uint32_t width);

  /// Interns `base`'s tuple extended by `extra` (the H6 morphing step
  /// k ⊕ a) without materializing an intermediate tuple. Thread-safe.
  IndexId InternAppend(IndexId base, AttributeId extra);

  /// The id of the ordered tuple `attrs[0..width)`, or kInvalidIndexId
  /// when it was never interned. Read-only: never assigns an id.
  /// Thread-safe.
  IndexId Find(const AttributeId* attrs, uint32_t width) const;

  /// Number of interned tuples (monotone; a momentary snapshot).
  size_t size() const { return count_.load(std::memory_order_acquire); }

  // -- O(1) per-id metadata (id must have been obtained happens-before) --

  const AttributeId* attrs(IndexId id) const { return entry(id).attrs; }
  uint32_t width(IndexId id) const { return entry(id).width; }
  AttributeId leading(IndexId id) const { return entry(id).attrs[0]; }
  /// Precomputed 64-bit attribute mask of the tuple.
  uint64_t mask(IndexId id) const { return entry(id).mask; }

  /// Whether the tuple contains `a` at any position: O(1) mask rejection,
  /// O(width) confirmation only on (rare) mask hits with folded bits.
  bool Contains(IndexId id, AttributeId a) const {
    const Entry& e = entry(id);
    if ((e.mask & AttrBit(a)) == 0) return false;
    for (uint32_t u = 0; u < e.width; ++u) {
      if (e.attrs[u] == a) return true;
    }
    return false;
  }

  /// Lexicographic tuple order — the arena equivalent of
  /// costmodel::Index::operator< (deterministic tie-breaks).
  bool Less(IndexId a, IndexId b) const;

 private:
  struct Entry {
    const AttributeId* attrs = nullptr;  ///< inline_attrs or overflow pool
    uint64_t mask = 0;
    uint32_t width = 0;
    AttributeId inline_attrs[kInlineAttrs] = {};
  };

  static constexpr size_t kBlockShift = 10;
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;  // 1024
  static constexpr size_t kBlockMask = kBlockSize - 1;
  static constexpr size_t kMaxBlocks = 1 << 14;  // 16M ids

  const Entry& entry(IndexId id) const {
    IDXSEL_DCHECK(id < count_.load(std::memory_order_acquire));
    return blocks_.Get(id >> kBlockShift)[id & kBlockMask];
  }

  /// Find() for a caller that holds mu_ and has hashed the tuple.
  IndexId FindLocked(const AttributeId* attrs, uint32_t width,
                     uint64_t hash) const IDXSEL_REQUIRES(mu_);

  /// Copies `attrs` into the contiguous overflow pool; returns the stable
  /// address.
  const AttributeId* PoolCopy(const AttributeId* attrs, uint32_t width)
      IDXSEL_REQUIRES(mu_);

  static uint64_t TupleHash(const AttributeId* attrs, uint32_t width) {
    uint64_t h = SplitMix64(width);
    for (uint32_t u = 0; u < width; ++u) h = HashCombine(h, attrs[u]);
    return h;
  }

  mutable common::Mutex mu_;
  std::atomic<size_t> count_{0};
  BlockDirectory<Entry> blocks_;  ///< Set() under mu_; lock-free reads
  // tuple hash -> interned ids with that hash (collisions resolved by
  // comparing the tuples themselves).
  std::unordered_multimap<uint64_t, IndexId> interned_ IDXSEL_GUARDED_BY(mu_);
  // Contiguous overflow pool for tuples wider than kInlineAttrs; chunked
  // so addresses stay stable while the pool grows.
  std::vector<std::unique_ptr<AttributeId[]>> pool_ IDXSEL_GUARDED_BY(mu_);
  size_t pool_used_ IDXSEL_GUARDED_BY(mu_) = 0;  ///< newest chunk usage
};

// -- Dense per-id value table -----------------------------------------------

/// Flat IndexId -> double cache (NaN = unset) with the same chunked,
/// address-stable layout as the arena. Backs WhatIfEngine's dense
/// per-index memory/maintenance fast paths. Values must be deterministic
/// per id: racing writers store the same bits, so relaxed atomics suffice.
class DenseValueTable {
 public:
  DenseValueTable() = default;
  ~DenseValueTable();
  DenseValueTable(const DenseValueTable&) = delete;
  DenseValueTable& operator=(const DenseValueTable&) = delete;

  /// NaN when unset.
  double Get(IndexId id) const {
    const std::atomic<double>* block = blocks_.Get(id >> kBlockShift);
    if (block == nullptr) return kUnset();
    return block[id & kBlockMask].load(std::memory_order_relaxed);
  }

  void Put(IndexId id, double value);

  /// Resets every allocated slot to unset (blocks are kept — ids stay
  /// addressable without reallocation). Serve's warm-state reuse hook:
  /// WhatIfEngine::InvalidateFrequencyDependentCaches clears the dense
  /// maintenance mirror this way after a frequency shift. Not safe
  /// concurrently with Put/Get.
  void Invalidate();

  static double kUnset() {
    return std::numeric_limits<double>::quiet_NaN();
  }

 private:
  static constexpr size_t kBlockShift = 10;
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;
  static constexpr size_t kBlockMask = kBlockSize - 1;
  static constexpr size_t kMaxBlocks = 1 << 14;

  // idxsel-lint: allow(guarded-field) reason=serializes block allocation
  // only; the slots are atomics published through the directory
  common::Mutex mu_;
  BlockDirectory<std::atomic<double>> blocks_;
};

// -- Dense per-(id, posting-slot) cost table --------------------------------

/// Flat (IndexId, posting slot) -> double cost cache, the dense fast path
/// in front of WhatIfEngine's sharded hash cache. A row holds one cost
/// per query of the index's leading attribute's posting list
/// (Workload::queries_with) — exactly the queries the engine would ever
/// consult the backend for — indexed by position in that list, so lookups
/// from posting-list iterations are a single load with no hashing.
/// NaN = unset. Rows are created lazily per id.
class DenseCostTable {
 public:
  DenseCostTable() = default;
  ~DenseCostTable();
  DenseCostTable(const DenseCostTable&) = delete;
  DenseCostTable& operator=(const DenseCostTable&) = delete;

  /// NaN when unset (or the row does not exist yet). `slot` is the
  /// query's position in the posting list of the id's leading attribute.
  double Get(IndexId id, uint32_t slot) const {
    const Row* row = FindRow(id);
    if (row == nullptr) return DenseValueTable::kUnset();
    IDXSEL_DCHECK(slot < row->len);
    return row->values[slot].load(std::memory_order_relaxed);
  }

  /// Stores a cost, creating the id's row (sized `row_len`, all-NaN) on
  /// first touch.
  void Put(IndexId id, uint32_t slot, uint32_t row_len, double value);

  /// Warm-row gather: copies row `id` at `slots[0..n)` into `out` and
  /// returns true iff every addressed slot is set. Each slot is read with
  /// one relaxed atomic load (a plain load on x86), so a probe may run
  /// while another thread fills the same row. On false (an unset slot, or
  /// no row yet) `out` is unspecified. An empty block is warm.
  bool GatherWarm(IndexId id, const uint32_t* slots, size_t n,
                  double* out) const;

  /// Copies every set slot of `from`'s row into *unset* slots of `to`'s
  /// row (both rows share the posting list: same leading attribute).
  /// Used on H6 append commits: f_j(k ⊕ a) == f_j(k) for every query
  /// that cannot exploit the extension, so the morphed index inherits the
  /// replaced index's costs wholesale — the delta-costing trick that
  /// keeps steady-state steps allocation- and hash-free. Slots already
  /// set on `to` (the re-estimated affected queries) are left untouched.
  void InheritRow(IndexId from, IndexId to, uint32_t row_len);

  /// Resets every slot of every row to NaN (rows stay allocated). Engine
  /// cache invalidation; not safe concurrently with in-flight lookups.
  void Invalidate();

 private:
  struct Row {
    std::unique_ptr<std::atomic<double>[]> values;
    uint32_t len = 0;
  };

  static constexpr size_t kBlockShift = 8;
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;  // 256 rows
  static constexpr size_t kBlockMask = kBlockSize - 1;
  static constexpr size_t kMaxBlocks = 1 << 16;

  const Row* FindRow(IndexId id) const {
    const std::atomic<Row*>* block = blocks_.Get(id >> kBlockShift);
    if (block == nullptr) return nullptr;
    return block[id & kBlockMask].load(std::memory_order_acquire);
  }

  Row* EnsureRow(IndexId id, uint32_t row_len);

  common::Mutex mu_;  // block/row allocation only
  BlockDirectory<std::atomic<Row*>> blocks_;
  std::vector<std::unique_ptr<Row>> rows_ IDXSEL_GUARDED_BY(mu_);  // ownership
};

// -- Reductions ---------------------------------------------------------------
//
// The H6 move-evaluation loops over the few queries a move touches. Each
// is one serial pass in ascending element order, so its FP result is the
// plain loop's in every build, and each keeps or drops an element without
// a branch (doc/cost_model.md, "Reductions").

/// Benefit of a single-attribute candidate over a posting list:
///
///   for (t = 0; t < n; ++t) {
///     gain = best[qids[t]] - costs[t];
///     acc += gain > 0 ? freq[qids[t]] * gain : +0.0;
///   }
///
/// `costs` is the per-slot cost array (posting order), `qids` the posting
/// list itself, `best`/`freq` are query-indexed tables. A NaN gain drops
/// its term.
double ReduceBenefitIndexed(const double* costs, const uint32_t* qids,
                            const double* best, const double* freq, size_t n);

/// Benefit of one append candidate over its affected-query block:
///
///   for (t = 0; t < n; ++t)
///     acc += freq[qids[t]] * (best[qids[t]] - (cw[t] < costs[t] ? cw[t]
///                                                                : costs[t]));
///
/// `costs` are the candidate's dense-row values (DenseCostTable::GatherWarm),
/// `cw` the per-query cost without the replaced index, both packed in
/// block order.
double ReduceAppendBenefit(const double* costs, const double* cw,
                           const uint32_t* qids, const double* best,
                           const double* freq, size_t n);

/// Compacts the posting slots whose query mask covers `required`: keeps
/// slot t iff (required & ~masks[t]) == 0 — the kernel's one-sided
/// "every required attribute maybe-present" test. Writes kept slot indices
/// (ascending) to `out` (capacity >= n); returns the kept count.
size_t FilterMasks(const uint64_t* masks, size_t n, uint64_t required,
                   uint32_t* out);

}  // namespace idxsel::kernel

#endif  // IDXSEL_KERNEL_KERNEL_H_
