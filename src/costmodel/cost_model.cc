#include "costmodel/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace idxsel::costmodel {

template <typename Skip>
double CostModel::ScanCost(QueryId j, double c, double rows,
                           Skip&& skip) const {
  const AttributeId* order = scan_order_.data() + scan_begin_[j];
  const size_t n = workload_->query(j).attributes.size();
  double cost = 0.0;
  for (size_t u = 0; u < n; ++u) {
    const AttributeId i = order[u];
    if (skip(i)) continue;
    const double s = selectivity_[i];
    cost += static_cast<double>(workload_->attribute(i).value_size) * rows * c;
    cost += params_.position_list_bytes * rows * c * s;
    c *= s;
  }
  return cost;
}

CostModel::CostModel(const workload::Workload* workload_in,
                     CostModelParams params)
    : workload_(workload_in), params_(params) {
  IDXSEL_CHECK(workload_ != nullptr);
  total_single_attr_memory_ = 0.0;
  selectivity_.reserve(workload_->num_attributes());
  for (AttributeId i = 0; i < workload_->num_attributes(); ++i) {
    total_single_attr_memory_ += IndexMemory(Index(i));
    selectivity_.push_back(workload_->attribute(i).selectivity());
  }

  // Compile the queries in one pass into three flat tables, with no
  // allocation per query: each query's run of scan_order_ is sorted in
  // place, and f_j(0) walks it.
  const size_t num_queries = workload_->num_queries();
  size_t total = 0;
  for (const workload::Query& q : workload_->queries()) {
    total += q.attributes.size();
  }
  scan_order_.reserve(total);
  scan_begin_.reserve(num_queries);
  base_cost_.reserve(num_queries);
  for (QueryId j = 0; j < num_queries; ++j) {
    const workload::Query& q = workload_->query(j);
    scan_begin_.push_back(scan_order_.size());
    scan_order_.insert(scan_order_.end(), q.attributes.begin(),
                       q.attributes.end());
    // Most selective first (Appendix B(i)5), so the surviving fraction
    // shrinks as quickly as possible; ties break on the id.
    std::sort(scan_order_.begin() + static_cast<long>(scan_begin_[j]),
              scan_order_.end(), [this](AttributeId x, AttributeId y) {
                if (selectivity_[x] != selectivity_[y]) {
                  return selectivity_[x] < selectivity_[y];
                }
                return x < y;
              });
    const double rows =
        static_cast<double>(workload_->table(q.table).row_count);
    double base;
    if (q.kind == workload::QueryKind::kWrite) {
      // Point write: locate the row plus write the touched values. Index
      // effects are charged separately as maintenance (MaintenanceCost).
      base = std::log2(std::max(2.0, rows));
      for (AttributeId i : q.attributes) {
        base += workload_->attribute(i).value_size;
      }
    } else {
      base = ScanCost(j, 1.0, rows, [](AttributeId) { return false; });
    }
    base_cost_.push_back(base);
  }
}

double CostModel::IndexMemory(const Index& k) const {
  IDXSEL_DCHECK(!k.empty());
  const double n = static_cast<double>(workload_->rows_of(k.leading()));
  // Position-list storage: ceil(ceil(log2 n) * n / 8) bytes.
  const double bits = std::ceil(std::log2(std::max(2.0, n)));
  double mem = std::ceil(bits * n / 8.0);
  for (AttributeId i : k.attributes()) {
    IDXSEL_DCHECK(workload_->attribute(i).table ==
                  workload_->attribute(k.leading()).table);
    mem += static_cast<double>(workload_->attribute(i).value_size) * n;
  }
  return mem;
}

double CostModel::TotalSingleAttributeMemory() const {
  return total_single_attr_memory_;
}

double CostModel::IndexProbeCost(const Index& k, size_t prefix_len,
                                 double rows, double* c) const {
  IDXSEL_DCHECK(prefix_len >= 1 && prefix_len <= k.width());
  double cost = std::log2(std::max(2.0, rows));
  double prefix_selectivity = 1.0;
  // Only the coverable prefix participates in key comparisons; trailing
  // attributes the query does not constrain are never touched during the
  // descent. This also guarantees f_j(k ++ i) == f_j(k) whenever the query
  // cannot exploit the extension — the invariant behind the paper's
  // "the costs of most queries do not change" caching argument.
  for (size_t u = 0; u < prefix_len; ++u) {
    const auto& stats = workload_->attribute(k.attribute(u));
    cost += static_cast<double>(stats.value_size) *
            std::log2(std::max(2.0, static_cast<double>(stats.distinct_values)));
    prefix_selectivity *= selectivity_[k.attribute(u)];
  }
  cost += params_.position_list_bytes * rows * (*c) * prefix_selectivity;
  *c *= prefix_selectivity;
  return cost;
}

bool CostModel::Applicable(QueryId j, const Index& k) const {
  const workload::Query& q = workload_->query(j);
  if (workload_->attribute(k.leading()).table != q.table) return false;
  return std::binary_search(q.attributes.begin(), q.attributes.end(),
                            k.leading());
}

double CostModel::MaintenanceCost(QueryId j, const Index& k) const {
  const workload::Query& q = workload_->query(j);
  if (q.kind != workload::QueryKind::kWrite) return 0.0;
  if (workload_->attribute(k.leading()).table != q.table) return 0.0;
  bool touches = false;
  for (AttributeId i : k.attributes()) {
    if (std::binary_search(q.attributes.begin(), q.attributes.end(), i)) {
      touches = true;
      break;
    }
  }
  if (!touches) return 0.0;
  const double rows = static_cast<double>(workload_->table(q.table).row_count);
  // Locate the stale entry, rewrite the key columns, fix the rid list.
  double cost = std::log2(std::max(2.0, rows)) + params_.position_list_bytes;
  for (AttributeId i : k.attributes()) {
    cost += workload_->attribute(i).value_size;
  }
  return cost;
}

double CostModel::CostWithIndex(QueryId j, const Index& k) const {
  const workload::Query& q = workload_->query(j);
  if (q.kind == workload::QueryKind::kWrite) return base_cost_[j];
  if (!Applicable(j, k)) return base_cost_[j];
  const size_t prefix_len = k.CoverablePrefixLength(q.attributes);
  IDXSEL_DCHECK(prefix_len >= 1);
  const double rows = static_cast<double>(workload_->table(q.table).row_count);

  double c = 1.0;
  double cost = IndexProbeCost(k, prefix_len, rows, &c);

  // Attributes of q_j not covered by the prefix are scanned sequentially.
  const AttributeId* prefix = k.attributes().data();
  cost += ScanCost(j, c, rows, [&](AttributeId a) {
    return std::find(prefix, prefix + prefix_len, a) != prefix + prefix_len;
  });
  // The index is only chosen when it helps (the optimizer would fall back
  // to a plain scan otherwise).
  return std::min(cost, base_cost_[j]);
}

double CostModel::CostOneIndex(QueryId j, const IndexConfig& config) const {
  double best = base_cost_[j];
  for (const Index& k : config.indexes()) {
    if (!Applicable(j, k)) continue;
    best = std::min(best, CostWithIndex(j, k));
  }
  return best;
}

double CostModel::CostMultiIndex(QueryId j, const IndexConfig& config) const {
  const workload::Query& q = workload_->query(j);
  if (q.kind == workload::QueryKind::kWrite) return base_cost_[j];
  const double rows = static_cast<double>(workload_->table(q.table).row_count);

  const std::vector<AttributeId>& attrs = q.attributes;  // sorted
  // covered[p]: attrs[p] lies in the used prefix of an applied index.
  std::vector<char> covered(attrs.size(), 0);
  const auto position = [&](AttributeId a) {
    return static_cast<size_t>(
        std::lower_bound(attrs.begin(), attrs.end(), a) - attrs.begin());
  };
  const auto uncovered = [&](AttributeId a) {
    const size_t p = position(a);
    return p < attrs.size() && attrs[p] == a && covered[p] == 0;
  };
  size_t remaining = attrs.size();
  double c = 1.0;
  double cost = 0.0;
  while (remaining > 0) {
    // Pick the applicable index whose coverable prefix shrinks the
    // surviving fraction the most (Appendix B(i)1: smallest result set).
    const Index* best = nullptr;
    size_t best_len = 0;
    double best_sel = 1.0;
    for (const Index& k : config.indexes()) {
      if (workload_->attribute(k.leading()).table != q.table) continue;
      size_t len = 0;
      while (len < k.width() && uncovered(k.attribute(len))) ++len;
      if (len == 0) continue;
      double sel = 1.0;
      for (size_t u = 0; u < len; ++u) sel *= selectivity_[k.attribute(u)];
      if (best == nullptr || sel < best_sel ||
          (sel == best_sel && len > best_len)) {
        best = &k;
        best_len = len;
        best_sel = sel;
      }
    }
    if (best == nullptr) break;

    // Use the index only when probing beats sequentially scanning the same
    // prefix attributes at the current surviving fraction.
    const AttributeId* prefix = best->attributes().data();
    const double scan_equiv = ScanCost(j, c, rows, [&](AttributeId a) {
      return std::find(prefix, prefix + best_len, a) == prefix + best_len;
    });
    double c_probe = c;
    const double probe = IndexProbeCost(*best, best_len, rows, &c_probe);
    if (probe >= scan_equiv) break;

    cost += probe;
    c = c_probe;
    for (size_t u = 0; u < best_len; ++u) covered[position(prefix[u])] = 1;
    remaining -= best_len;
  }
  cost += ScanCost(j, c, rows,
                   [&](AttributeId a) { return covered[position(a)] != 0; });
  // The optimizer also considers every single-index plan (and the plain
  // scan, via CostOneIndex); the multi-index greedy is only taken when it
  // wins. This keeps f_j monotone: more indexes never cost more.
  return std::min(cost, CostOneIndex(j, config));
}

}  // namespace idxsel::costmodel
