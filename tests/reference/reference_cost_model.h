// The Appendix-B read costs as they stood before the cost model was
// compiled into per-query scan orders — every sequential scan copies its
// attribute list and sorts it by selectivity, CostWithIndex collects the
// uncovered attributes into a fresh `rest` vector, and CostMultiIndex
// keeps its remaining attributes as a sorted vector it rebuilds per
// applied index — kept verbatim as the oracle tests/costmodel_test.cc
// checks costmodel::CostModel against. It exists to be obviously the old
// model, not fast.
//
// Contract production must meet: UnindexedCost, CostWithIndex,
// CostOneIndex and CostMultiIndex return the same bits for every query,
// index and configuration.

#ifndef IDXSEL_TESTS_REFERENCE_REFERENCE_COST_MODEL_H_
#define IDXSEL_TESTS_REFERENCE_REFERENCE_COST_MODEL_H_

#include <vector>

#include "costmodel/cost_model.h"
#include "costmodel/index.h"
#include "workload/workload.h"

namespace idxsel::reference {

/// costmodel::CostModel's read costs before the compiled scan orders.
class ReferenceCostModel {
 public:
  explicit ReferenceCostModel(const workload::Workload* workload,
                              costmodel::CostModelParams params = {})
      : workload_(workload), params_(params) {}

  double UnindexedCost(workload::QueryId j) const;
  double CostWithIndex(workload::QueryId j, const costmodel::Index& k) const;
  double CostOneIndex(workload::QueryId j,
                      const costmodel::IndexConfig& config) const;
  double CostMultiIndex(workload::QueryId j,
                        const costmodel::IndexConfig& config) const;

 private:
  bool Applicable(workload::QueryId j, const costmodel::Index& k) const;
  double SequentialScanCost(const std::vector<workload::AttributeId>& attrs,
                            double c, double rows) const;
  double IndexProbeCost(const costmodel::Index& k, size_t prefix_len,
                        double rows, double* c) const;

  const workload::Workload* workload_;
  costmodel::CostModelParams params_;
};

}  // namespace idxsel::reference

#endif  // IDXSEL_TESTS_REFERENCE_REFERENCE_COST_MODEL_H_
