// Outside-in tracing for the --trace runs: a timing decorator over the
// what-if backend, harness spans around each public call (exported as a
// Chrome trace), and a recorder for the serve layer's commit-protocol hooks.
// Nothing here reaches inside the library; every number comes from timing
// calls into public functions.

#ifndef IDXSEL_BENCH_E2E_TRACE_H_
#define IDXSEL_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/what_if.h"
#include "harness.h"

namespace idxsel::e2e {

/// Backend call count and busy time of the TimingBackends counting into
/// it. Counting is switched off while `active` is false, so traced and
/// untraced operations can alternate on long-lived decorators.
///
/// Every call is counted but only a pseudo-random 1 in kSampleEvery is
/// timed, and the busy time is scaled up from the sample: a serve round
/// re-prices write maintenance with tens of thousands of sub-microsecond
/// backend calls, and two clock reads around each one doubled its length.
struct BackendTally {
  static constexpr uint64_t kSampleEvery = 16;

  std::atomic<bool> active{true};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> timed_calls{0};
  std::atomic<int64_t> timed_nanos{0};

  /// Estimated busy seconds of all counted calls, net of the cost of the
  /// clock reads around each timed one.
  double seconds() const;
};

/// Times all five WhatIfBackend methods of an inner backend into a tally.
class TimingBackend final : public costmodel::WhatIfBackend {
 public:
  /// Borrows `inner`, which must outlive the decorator.
  TimingBackend(const costmodel::WhatIfBackend* inner, BackendTally* tally)
      : inner_(inner), tally_(tally) {}
  /// Owns `inner` (serve's BackendFactory hands out owning backends).
  TimingBackend(std::unique_ptr<costmodel::WhatIfBackend> inner,
                BackendTally* tally)
      : owned_(std::move(inner)), inner_(owned_.get()), tally_(tally) {}

  double BaseCost(costmodel::QueryId j) const override;
  double CostWithIndex(costmodel::QueryId j,
                       const costmodel::Index& k) const override;
  double CostWithConfig(costmodel::QueryId j,
                        const costmodel::IndexConfig& config) const override;
  double IndexMemory(const costmodel::Index& k) const override;
  double MaintenanceCost(costmodel::QueryId j,
                         const costmodel::Index& k) const override;

 private:
  template <typename F>
  double Timed(F&& call) const;

  std::unique_ptr<costmodel::WhatIfBackend> owned_;
  const costmodel::WhatIfBackend* inner_;
  BackendTally* tally_;
};

/// Harness spans around calls into the library's public functions. Spans
/// of one operation share its id; nesting is by time containment, which is
/// how Chrome's trace viewer draws "X" events of one thread.
class SpanLog {
 public:
  /// When `enabled` is false nothing is ever recorded.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Switches recording for the operations that follow; traced runs
  /// alternate traced and untraced operations to measure the overhead.
  void set_active(bool active) { active_ = active; }
  bool recording() const { return enabled_ && active_; }

  /// Id that spans recorded from now on carry.
  void set_op(uint64_t op) { op_ = op; }

  /// Records a span `name` of `layer` (a string literal) while recording.
  void Add(const std::string& name, const char* layer, Clock::time_point start,
           Clock::time_point end);

  /// Durations in seconds of every recorded span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes {"traceEvents": [...]} for chrome://tracing or Perfetto.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* layer;
    uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };

  bool enabled_;
  bool active_ = true;
  uint64_t op_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Intervals between the serve layer's commit-protocol hook points, from
/// ServeHooks::at timestamps. One Pump passes pump-start -> round-start ->
/// pre-commit -> checkpoint-temp-written -> journal-appended -> committed;
/// the five gaps are apply, round, checkpoint, journal and publish.
class HookRecorder {
 public:
  /// The `at` hook to install; records only while `active`.
  std::function<void(const char*)> Hook();

  void set_active(bool active) { active_ = active; }

  /// Folds the points recorded since the last call into the interval
  /// samples and the span log, then forgets them.
  void EndPump(SpanLog* spans);

  /// Samples in seconds of one interval ("apply", "round", ...).
  const std::vector<double>& Interval(const std::string& name) const;

 private:
  bool active_ = false;
  std::vector<std::pair<std::string, Clock::time_point>> points_;
  std::map<std::string, std::vector<double>> intervals_;
};

/// The library's always-on counters (obs::Registry, telemetry slots
/// included), by name. They count in traced and untraced runs alike.
using Counters = std::map<std::string, uint64_t>;
Counters SnapshotCounters();

/// Per-layer metrics from the counter deltas of a measured phase: what-if
/// cache hit ratio, core rounds and candidate evaluations, kernel fast-path
/// share, shard arbiter work. Counts are per operation (`ops`); `steps` is
/// the number of committed H6 steps in the phase.
void ReportCounterLayers(const Counters& before, const Counters& after,
                         double ops, double steps, RunResult* result);

}  // namespace idxsel::e2e

#endif  // IDXSEL_BENCH_E2E_TRACE_H_
