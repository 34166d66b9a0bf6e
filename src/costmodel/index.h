// Multi-attribute index representation.
//
// An index k = (i_1, ..., i_K) is an *ordered* tuple of attributes of one
// table (Section II-A). Order matters: an index is applicable to a query
// only through its leading attribute, and only the longest prefix contained
// in the query's attribute set can be exploited ("coverable prefix").

#ifndef IDXSEL_COSTMODEL_INDEX_H_
#define IDXSEL_COSTMODEL_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "workload/workload.h"

namespace idxsel::costmodel {

using workload::AttributeId;
using workload::QueryId;
using workload::TableId;

/// Ordered attribute tuple identifying one (multi-attribute) index.
/// Immutable value type with hashing; attributes must be pairwise distinct
/// and belong to one table (checked where a workload is available).
class Index {
 public:
  Index() = default;

  /// Single-attribute index {i}.
  explicit Index(AttributeId attribute) : attrs_{attribute} {}

  /// Multi-attribute index from an ordered attribute list.
  explicit Index(std::vector<AttributeId> attributes)
      : attrs_(std::move(attributes)) {
    IDXSEL_DCHECK(!attrs_.empty());
  }

  /// Number of attributes K.
  size_t width() const { return attrs_.size(); }
  bool empty() const { return attrs_.empty(); }

  /// u-th attribute (0-based) in index order.
  AttributeId attribute(size_t u) const { return attrs_[u]; }
  const std::vector<AttributeId>& attributes() const { return attrs_; }

  /// Leading attribute l(k); an index is applicable to q_j iff
  /// l(k) is in q_j.
  AttributeId leading() const {
    IDXSEL_DCHECK(!attrs_.empty());
    return attrs_.front();
  }

  /// Whether the tuple contains `attribute` at any position.
  bool Contains(AttributeId attribute) const;

  /// New index with `attribute` appended at the end ("morphing" step of
  /// Algorithm 1). Precondition: !Contains(attribute).
  Index Append(AttributeId attribute) const;

  /// Prefix of the first `len` attributes.
  Index Prefix(size_t len) const;

  /// True if `other` is a (not necessarily proper) prefix of this index.
  bool HasPrefix(const Index& other) const;

  /// Length of the longest prefix of this index whose attributes are all
  /// contained in the *sorted* attribute set `sorted_attrs`
  /// (the paper's U(q_j, k)).
  size_t CoverablePrefixLength(
      const std::vector<AttributeId>& sorted_attrs) const;

  bool operator==(const Index& other) const { return attrs_ == other.attrs_; }
  bool operator!=(const Index& other) const { return !(*this == other); }
  /// Lexicographic order; gives deterministic iteration in ordered sets.
  bool operator<(const Index& other) const { return attrs_ < other.attrs_; }

  /// FNV-style hash over the attribute tuple.
  size_t Hash() const;

  /// "(3,17,4)" — raw ids; use NamedWorkload for pretty names.
  std::string ToString() const;

 private:
  std::vector<AttributeId> attrs_;
};

/// Hash functor for unordered containers keyed by Index.
struct IndexHash {
  size_t operator()(const Index& k) const {
    // Finalize with SplitMix64 so both unordered_map bucket masks (low
    // bits) and exec::ShardedMap shard selection (high bits) see
    // well-mixed bits even for short attribute tuples.
    return SplitMix64(k.Hash());
  }
};

/// An index configuration I*: a set of indexes, kept sorted/unique so that
/// equality and hashing are canonical.
class IndexConfig {
 public:
  IndexConfig() = default;
  explicit IndexConfig(std::vector<Index> indexes);

  /// Inserts `k`; returns false if it was already present.
  bool Insert(const Index& k);

  /// Removes `k`; returns false if it was absent.
  bool Erase(const Index& k);

  bool Contains(const Index& k) const;

  size_t size() const { return indexes_.size(); }
  bool empty() const { return indexes_.empty(); }
  const std::vector<Index>& indexes() const { return indexes_; }

  bool operator==(const IndexConfig& other) const {
    return indexes_ == other.indexes_;
  }

  /// "{(1), (2,7)}".
  std::string ToString() const;

 private:
  std::vector<Index> indexes_;  // sorted, unique
};

/// I* grouped into runs of indexes sharing a leading attribute. I* is
/// sorted, so the runs are contiguous and ascend by l(k), and visiting
/// the runs of q_j's (ascending) attributes meets exactly the indexes
/// applicable to q_j, in configuration order. O(N + |I*|) to build.
class LeadingRuns {
 public:
  LeadingRuns(const workload::Workload& w, const IndexConfig& config);

  /// Calls visit(p, slot) for each config.indexes()[p] applicable to
  /// query j, in configuration order; slot is j's posting slot of l(k).
  /// Queries must come in ascending order, skipping none that touches a
  /// configured leading attribute: each run counts the queries it served,
  /// and that count is the slot.
  template <typename Visit>
  void ForEachApplicable(QueryId j, Visit&& visit) {
    for (AttributeId a : workload_->query(j).attributes) {
      if (run_of_[a] == kNoRun) continue;
      Run& run = runs_[run_of_[a]];
      for (uint32_t p = run.begin; p < run.end; ++p) visit(p, run.served);
      ++run.served;
    }
  }

 private:
  static constexpr uint32_t kNoRun = ~uint32_t{0};
  struct Run {
    uint32_t begin, end;  ///< positions in config.indexes()
    uint32_t served;      ///< queries visited so far = next posting slot
  };
  const workload::Workload* workload_;
  std::vector<uint32_t> run_of_;  ///< by attribute; kNoRun if none
  std::vector<Run> runs_;
};

}  // namespace idxsel::costmodel

#endif  // IDXSEL_COSTMODEL_INDEX_H_
