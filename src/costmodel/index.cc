#include "costmodel/index.h"

#include <algorithm>

namespace idxsel::costmodel {

bool Index::Contains(AttributeId attribute) const {
  return std::find(attrs_.begin(), attrs_.end(), attribute) != attrs_.end();
}

Index Index::Append(AttributeId attribute) const {
  IDXSEL_DCHECK(!Contains(attribute));
  std::vector<AttributeId> attrs = attrs_;
  attrs.push_back(attribute);
  return Index(std::move(attrs));
}

Index Index::Prefix(size_t len) const {
  IDXSEL_DCHECK(len >= 1 && len <= attrs_.size());
  return Index(std::vector<AttributeId>(attrs_.begin(),
                                        attrs_.begin() + static_cast<long>(len)));
}

bool Index::HasPrefix(const Index& other) const {
  if (other.width() > width()) return false;
  return std::equal(other.attrs_.begin(), other.attrs_.end(), attrs_.begin());
}

size_t Index::CoverablePrefixLength(
    const std::vector<AttributeId>& sorted_attrs) const {
  size_t len = 0;
  for (AttributeId a : attrs_) {
    if (!std::binary_search(sorted_attrs.begin(), sorted_attrs.end(), a)) {
      break;
    }
    ++len;
  }
  return len;
}

size_t Index::Hash() const {
  size_t h = 0xcbf29ce484222325ULL;
  for (AttributeId a : attrs_) {
    h ^= a + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::string Index::ToString() const {
  std::string out = "(";
  for (size_t u = 0; u < attrs_.size(); ++u) {
    if (u != 0) out += ',';
    out += std::to_string(attrs_[u]);
  }
  out += ')';
  return out;
}

IndexConfig::IndexConfig(std::vector<Index> indexes)
    : indexes_(std::move(indexes)) {
  std::sort(indexes_.begin(), indexes_.end());
  indexes_.erase(std::unique(indexes_.begin(), indexes_.end()),
                 indexes_.end());
}

bool IndexConfig::Insert(const Index& k) {
  auto it = std::lower_bound(indexes_.begin(), indexes_.end(), k);
  if (it != indexes_.end() && *it == k) return false;
  indexes_.insert(it, k);
  return true;
}

bool IndexConfig::Erase(const Index& k) {
  auto it = std::lower_bound(indexes_.begin(), indexes_.end(), k);
  if (it == indexes_.end() || !(*it == k)) return false;
  indexes_.erase(it);
  return true;
}

bool IndexConfig::Contains(const Index& k) const {
  return std::binary_search(indexes_.begin(), indexes_.end(), k);
}

LeadingRuns::LeadingRuns(const workload::Workload& w,
                         const IndexConfig& config)
    : workload_(&w), run_of_(w.num_attributes(), kNoRun) {
  const std::vector<Index>& indexes = config.indexes();
  for (uint32_t p = 0; p < indexes.size(); ++p) {
    const AttributeId a = indexes[p].leading();
    if (run_of_[a] == kNoRun) {
      run_of_[a] = static_cast<uint32_t>(runs_.size());
      runs_.push_back({p, p, 0});
    }
    ++runs_.back().end;
  }
}

std::string IndexConfig::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (i != 0) out += ", ";
    out += indexes_[i].ToString();
  }
  out += '}';
  return out;
}

}  // namespace idxsel::costmodel
