// Shared plumbing of bench_e2e: run options, clocks, sample statistics, and
// the RunResult every workload fills in — end-to-end metrics, per-layer
// metrics, correctness checks, and the workload parameters it ran with.

#ifndef IDXSEL_BENCH_E2E_HARNESS_H_
#define IDXSEL_BENCH_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "workload/workload.h"

namespace idxsel::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return SecondsBetween(from, Clock::now());
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measured-phase length
  bool trace = false;     ///< per-layer run instead of end-to-end run
  bool smoke = false;     ///< tiny sizes: correctness only
  std::string out_dir = ".";
};

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);
/// exp(mean(log v)); every value must be positive.
double GeometricMean(const std::vector<double>& values);

/// |a - b| <= tolerance * max(|a|, |b|).
bool RelativelyEqual(double a, double b, double tolerance);

/// One reported metric: name and unit. BENCHMARK.json lists the same.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What an untraced run reports.
const std::vector<MetricSpec>& EndToEndMetrics();
/// What a traced run reports; a layer a workload does not exercise reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Runs `setup` several times from scratch and returns the median
/// seconds. The state built by the last repetition is the one the run
/// measures.
double TimeSetup(const std::function<void()>& setup);

/// Attribute names "<table>.a<ordinal>" for a generated workload: the
/// textual format and the serve checkpoints need names, the generator
/// emits none.
workload::NamedWorkload NameWorkload(workload::Workload w);

/// Everything one run produces.
class RunResult {
 public:
  /// Records a metric of either list. A name in neither list aborts:
  /// BENCHMARK.json and the binary must agree.
  void Set(const std::string& name, double value);

  /// Records a workload parameter for the result file.
  void Param(const std::string& name, double value);

  /// Counts one attempted operation; a failed one keeps `what`.
  void Op(bool ok, const std::string& what = "");

  /// A check outside any single operation (setup, end-of-run state). A
  /// failure fails the run without adding an operation.
  void Check(bool ok, const std::string& what);

  /// Fails the run unless every metric the run's kind reports was
  /// measured: end-to-end metrics must be set, finite and positive;
  /// per-layer metrics finite (unset ones read 0).
  void CheckReported(const Options& options);

  bool correct() const { return failed_ == 0 && run_failures_ == 0; }

  /// Prints every metric of the run's kind as "name = value unit" lines and
  /// the failure messages, then the single-line JSON summary last.
  void Print(const Options& options) const;

  /// Writes the full result document (provenance, parameters, metrics,
  /// failures) to `path`; returns false when the file cannot be written.
  bool WriteFile(const Options& options, const std::string& path) const;

 private:
  std::string MetricsJson(const Options& options) const;

  std::map<std::string, double> metrics_;
  std::map<std::string, double> params_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t run_failures_ = 0;
};

/// Schedule and latency record of a closed loop over a pool of inputs.
/// Operation i runs input (i / reps) % pool with reps 1, or in traced runs
/// reps 2: every input twice in a row, plain then traced, so the run
/// measures its own tracing overhead on equal inputs. The loop lasts
/// `seconds` and at least one pass over the pool, so the exact metrics,
/// taken on the plain operations of that first pass, cover the same inputs
/// in every run.
class ClosedLoop {
 public:
  ClosedLoop(size_t pool, double seconds, bool traced)
      : pool_(pool), reps_(traced ? 2 : 1), seconds_(seconds) {}

  /// Starts the next operation; false once the loop is over.
  bool Next();

  size_t op() const { return op_; }
  size_t input() const { return (op_ / reps_) % pool_; }
  bool traced() const { return op_ % reps_ == 1; }
  /// The operation is the first on its input of this pair.
  bool new_input() const { return op_ % reps_ == 0; }
  bool first_pass() const { return op_ < pool_ * reps_ && !traced(); }

  /// Records the latency of the current operation.
  void Record(double seconds);
  /// Operations recorded so far.
  double ops() const { return static_cast<double>(latency_.size()); }

  /// latency_p50_ms, ops_per_s (per second of busy time), and the
  /// harness.* latency health metrics.
  void Report(RunResult* result) const;

 private:
  size_t pool_;
  size_t reps_;
  double seconds_;
  size_t op_ = 0;
  bool started_ = false;
  Clock::time_point start_;
  std::vector<double> latency_;
  std::vector<double> overhead_;  ///< traced / plain latency per pair
};

/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

}  // namespace idxsel::e2e

#endif  // IDXSEL_BENCH_E2E_HARNESS_H_
