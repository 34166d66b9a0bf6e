// Measured-runtime cost source (Section IV-B).
//
// Instead of what-if estimations, the paper's end-to-end evaluation
// *executes* every query under every candidate index and feeds the measured
// runtimes into all selection strategies. MeasuredCostSource reproduces
// that protocol against the bundled column store: every f_j(k) is the
// best-of-`repetitions` wall-clock runtime of query j executed through
// index k (built on demand and cached), and f_j(0) is the pure-scan
// runtime. Index sizes are the actually-allocated bytes.
//
// Query templates are instantiated into concrete equality literals by
// sampling one row per query (deterministic seed), guaranteeing non-empty
// probe paths.

#ifndef IDXSEL_ENGINE_MEASURED_COST_H_
#define IDXSEL_ENGINE_MEASURED_COST_H_

#include <unordered_map>
#include <vector>

#include "costmodel/what_if.h"
#include "engine/column_store.h"
#include "engine/composite_index.h"
#include "engine/executor.h"

namespace idxsel::engine {

/// WhatIfBackend backed by real executions on a Database.
class MeasuredCostSource : public costmodel::WhatIfBackend {
 public:
  /// `repetitions`: executions per measurement; the minimum is reported
  /// (the paper repeats >= 100 times; scale to taste).
  MeasuredCostSource(const Database* database, uint32_t repetitions,
                     uint64_t seed);

  double BaseCost(QueryId j) const override;
  double CostWithIndex(QueryId j, const costmodel::Index& k) const override;
  double IndexMemory(const costmodel::Index& k) const override;

  /// Concrete predicates instantiated for query j (for tests/examples).
  const std::vector<Predicate>& predicates(QueryId j) const {
    return predicates_[j];
  }

  /// Number of physical index builds performed so far.
  size_t indexes_built() const { return indexes_.size(); }

 private:
  const CompositeIndex& GetOrBuildIndex(const costmodel::Index& k) const;
  double TimeExecution(QueryId j, const CompositeIndex* index) const;

  const Database* db_;
  uint32_t repetitions_;
  std::vector<std::vector<Predicate>> predicates_;  // per query
  std::vector<Executor> executors_;                 // per table
  mutable std::unordered_map<costmodel::Index, CompositeIndex,
                             costmodel::IndexHash>
      indexes_;
  mutable std::vector<double> base_cache_;  // NaN = not yet measured
  mutable uint64_t sink_ = 0;  // defeats dead-code elimination
};

}  // namespace idxsel::engine

#endif  // IDXSEL_ENGINE_MEASURED_COST_H_
