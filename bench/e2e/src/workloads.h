// The four bench_e2e workloads, and the advice step three of them share.
// README.md says what each workload measures and why it exists.

#ifndef IDXSEL_BENCH_E2E_WORKLOADS_H_
#define IDXSEL_BENCH_E2E_WORKLOADS_H_

#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "harness.h"
#include "serve/plan.h"
#include "trace.h"
#include "workload/workload.h"

namespace idxsel::e2e {

/// One piece of advice for a workload: H6 with advisor defaults at budget
/// share `budget_fraction` on one thread, then the deployment plan from
/// the empty configuration and its prefix-budget validation.
struct Advice {
  Status status;  ///< first failure of Recommend or ValidatePlanPrefixes
  advisor::Recommendation rec;
  serve::DeploymentPlan plan;
  uint64_t whatif_calls = 0;         ///< engine backend calls, whole call
  double recommend_seconds = 0.0;
  double recommend_backend_seconds = 0.0;  ///< traced only
  double backend_seconds = 0.0;            ///< traced only
  uint64_t backend_calls = 0;              ///< traced only
};

/// Runs the advice step over the analytic cost model: the plain
/// ModelBackend, or when `traced` a TimingBackend around it. Spans go to
/// `spans` when it is recording.
Advice Advise(const workload::Workload& w, double budget_fraction,
              bool traced, SpanLog* spans);

/// The output checks every advice must pass: Recommend ok and not
/// degraded, memory within budget, a valid plan that ends at the
/// selection, and F(selection) recomputed on a fresh engine over a fresh
/// backend equal to the reported cost within 1e-9 relative. Returns the
/// first failed check ("" when all hold); `*ratio` gets the recomputed
/// F(selection) / F(empty).
std::string CheckAdvice(const workload::Workload& w, const Advice& advice,
                        double* ratio);

/// Per-layer samples of the advice step across a run's operations.
class AdviceLayers {
 public:
  /// Records one advice; its timings count only when `traced`.
  void Add(const Advice& advice, bool traced);

  /// Committed H6 steps over all recorded advice.
  double steps() const { return steps_; }

  /// advisor.recommend_s, costmodel.backend_s, costmodel.backend_calls,
  /// core.self_s and serve.plan_s (per traced advice), serve.plan_steps.
  void Report(const SpanLog& spans, RunResult* result) const;

 private:
  double steps_ = 0.0;
  std::vector<double> plan_steps_;
  std::vector<double> recommend_s_, backend_s_, backend_calls_, self_s_;
};

void RunAdvisePaper(const Options& options, RunResult* result, SpanLog* spans);
void RunAdviseWide(const Options& options, RunResult* result, SpanLog* spans);
void RunServeDrift(const Options& options, RunResult* result, SpanLog* spans);
void RunDeployMeasured(const Options& options, RunResult* result,
                       SpanLog* spans);

}  // namespace idxsel::e2e

#endif  // IDXSEL_BENCH_E2E_WORKLOADS_H_
