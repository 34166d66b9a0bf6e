#include "reference/reference_cost_model.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/check.h"

namespace idxsel::reference {

using costmodel::Index;
using costmodel::IndexConfig;
using workload::AttributeId;
using workload::QueryId;

double ReferenceCostModel::SequentialScanCost(
    const std::vector<AttributeId>& attrs, double c, double rows) const {
  // Scan most selective attributes first (Appendix B(i)5) so the surviving
  // fraction shrinks as quickly as possible.
  std::vector<AttributeId> order = attrs;
  std::sort(order.begin(), order.end(), [&](AttributeId x, AttributeId y) {
    const double sx = workload_->attribute(x).selectivity();
    const double sy = workload_->attribute(y).selectivity();
    if (sx != sy) return sx < sy;
    return x < y;
  });
  double cost = 0.0;
  for (AttributeId i : order) {
    const auto& stats = workload_->attribute(i);
    cost += static_cast<double>(stats.value_size) * rows * c;
    cost += params_.position_list_bytes * rows * c * stats.selectivity();
    c *= stats.selectivity();
  }
  return cost;
}

double ReferenceCostModel::IndexProbeCost(const Index& k, size_t prefix_len,
                                          double rows, double* c) const {
  IDXSEL_CHECK(prefix_len >= 1 && prefix_len <= k.width());
  double cost = std::log2(std::max(2.0, rows));
  double prefix_selectivity = 1.0;
  for (size_t u = 0; u < prefix_len; ++u) {
    const auto& stats = workload_->attribute(k.attribute(u));
    cost += static_cast<double>(stats.value_size) *
            std::log2(std::max(2.0, static_cast<double>(stats.distinct_values)));
    prefix_selectivity *= stats.selectivity();
  }
  cost += params_.position_list_bytes * rows * (*c) * prefix_selectivity;
  *c *= prefix_selectivity;
  return cost;
}

double ReferenceCostModel::UnindexedCost(QueryId j) const {
  const workload::Query& q = workload_->query(j);
  const double rows = static_cast<double>(workload_->table(q.table).row_count);
  if (q.kind == workload::QueryKind::kWrite) {
    double cost = std::log2(std::max(2.0, rows));
    for (AttributeId i : q.attributes) {
      cost += workload_->attribute(i).value_size;
    }
    return cost;
  }
  return SequentialScanCost(q.attributes, 1.0, rows);
}

bool ReferenceCostModel::Applicable(QueryId j, const Index& k) const {
  const workload::Query& q = workload_->query(j);
  if (workload_->attribute(k.leading()).table != q.table) return false;
  return std::binary_search(q.attributes.begin(), q.attributes.end(),
                            k.leading());
}

double ReferenceCostModel::CostWithIndex(QueryId j, const Index& k) const {
  const workload::Query& q = workload_->query(j);
  if (q.kind == workload::QueryKind::kWrite) return UnindexedCost(j);
  if (!Applicable(j, k)) return UnindexedCost(j);
  const size_t prefix_len = k.CoverablePrefixLength(q.attributes);
  IDXSEL_CHECK(prefix_len >= 1);
  const double rows = static_cast<double>(workload_->table(q.table).row_count);

  double c = 1.0;
  double cost = IndexProbeCost(k, prefix_len, rows, &c);

  std::vector<AttributeId> rest;
  rest.reserve(q.attributes.size());
  for (AttributeId a : q.attributes) {
    bool covered = false;
    for (size_t u = 0; u < prefix_len; ++u) {
      if (k.attribute(u) == a) {
        covered = true;
        break;
      }
    }
    if (!covered) rest.push_back(a);
  }
  cost += SequentialScanCost(rest, c, rows);
  return std::min(cost, UnindexedCost(j));
}

double ReferenceCostModel::CostOneIndex(QueryId j,
                                        const IndexConfig& config) const {
  double best = UnindexedCost(j);
  for (const Index& k : config.indexes()) {
    if (!Applicable(j, k)) continue;
    best = std::min(best, CostWithIndex(j, k));
  }
  return best;
}

double ReferenceCostModel::CostMultiIndex(QueryId j,
                                          const IndexConfig& config) const {
  const workload::Query& q = workload_->query(j);
  if (q.kind == workload::QueryKind::kWrite) return UnindexedCost(j);
  const double rows = static_cast<double>(workload_->table(q.table).row_count);

  std::vector<AttributeId> remaining = q.attributes;  // sorted
  double c = 1.0;
  double cost = 0.0;
  while (!remaining.empty()) {
    const Index* best = nullptr;
    size_t best_len = 0;
    double best_sel = 1.0;
    for (const Index& k : config.indexes()) {
      if (workload_->attribute(k.leading()).table != q.table) continue;
      const size_t len = k.CoverablePrefixLength(remaining);
      if (len == 0) continue;
      double sel = 1.0;
      for (size_t u = 0; u < len; ++u) {
        sel *= workload_->attribute(k.attribute(u)).selectivity();
      }
      if (best == nullptr || sel < best_sel ||
          (sel == best_sel && len > best_len)) {
        best = &k;
        best_len = len;
        best_sel = sel;
      }
    }
    if (best == nullptr) break;

    std::vector<AttributeId> prefix_attrs(
        best->attributes().begin(),
        best->attributes().begin() + static_cast<long>(best_len));
    std::sort(prefix_attrs.begin(), prefix_attrs.end());
    const double scan_equiv = SequentialScanCost(prefix_attrs, c, rows);
    double c_probe = c;
    const double probe = IndexProbeCost(*best, best_len, rows, &c_probe);
    if (probe >= scan_equiv) break;

    cost += probe;
    c = c_probe;
    std::vector<AttributeId> next;
    next.reserve(remaining.size());
    std::set_difference(remaining.begin(), remaining.end(),
                        prefix_attrs.begin(), prefix_attrs.end(),
                        std::back_inserter(next));
    remaining = std::move(next);
  }
  cost += SequentialScanCost(remaining, c, rows);
  return std::min(cost, CostOneIndex(j, config));
}

}  // namespace idxsel::reference
