// Fault-injecting what-if backend — the chaos half of idxsel::rt.
//
// Production what-if optimizers misbehave: they return garbage estimates
// (NaN/Inf after arithmetic overflow, negative costs from broken
// statistics), stall under load, and fail transiently. A selection
// pipeline that feeds such values into benefit ratios or branch-and-bound
// bounds corrupts its output silently. FaultInjectingBackend decorates any
// costmodel::WhatIfBackend with deterministic, seeded injection of exactly
// these failure modes so tests and benches can prove the pipeline
// tolerates them (WhatIfEngine sanitizes; see doc/robustness.md).
//
// Injection is reproducible: the same seed and call sequence produce the
// same faults, independent of wall-clock time or platform (common/random.h
// xoshiro streams). Every injected fault is counted per kind and mirrored
// onto the process-wide "idxsel.rt.fault_injected" counter.

#ifndef IDXSEL_RT_FAULT_INJECTION_H_
#define IDXSEL_RT_FAULT_INJECTION_H_

#include <cstdint>

#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "costmodel/what_if.h"

namespace idxsel::rt {

/// Knobs of the chaos backend. All probabilities are per backend call and
/// independent; value corruptions are mutually exclusive per call (first
/// matching draw wins).
struct FaultInjectionOptions {
  uint64_t seed = 1;  ///< Same seed + call order => same fault sequence.

  // Value corruption (applies to costs and index sizes).
  double nan_probability = 0.0;       ///< Return quiet NaN.
  double inf_probability = 0.0;       ///< Return +infinity.
  double negative_probability = 0.0;  ///< Negate the true value (or -1).

  // Spurious latency: with `latency_probability`, sleep `latency_seconds`
  // before answering — a stalled optimizer under load.
  double latency_probability = 0.0;
  double latency_seconds = 0.0;

  /// Transient outage: calls [fail_after_calls, fail_after_calls +
  /// fail_burst) return NaN regardless of the probabilistic draws, then
  /// the backend recovers. 0 burst = no outage.
  uint64_t fail_after_calls = 0;
  uint64_t fail_burst = 0;

  /// Recurring burst outages: after every healthy gap the backend fails
  /// for exactly `outage_burst` consecutive calls, then recovers — the
  /// N-failures-then-recovery shape a circuit breaker needs to trip,
  /// half-open on a probe, and close deterministically (doc/serve.md).
  /// Gap lengths are drawn uniformly from [outage_gap_min,
  /// outage_gap_max] on the seeded stream, so the whole schedule is a
  /// pure function of the seed and the call sequence. The first gap
  /// starts after `healthy_calls`. 0 burst = mode off; the one-shot
  /// fail_after_calls window above composes independently.
  uint64_t outage_burst = 0;
  uint64_t outage_gap_min = 0;
  uint64_t outage_gap_max = 0;

  /// The first `healthy_calls` calls are never corrupted (lets tests warm
  /// caches with truthful values before the chaos starts).
  uint64_t healthy_calls = 0;
};

/// Per-kind injection counters.
struct FaultInjectionStats {
  uint64_t calls = 0;
  uint64_t injected_nan = 0;
  uint64_t injected_inf = 0;
  uint64_t injected_negative = 0;
  uint64_t injected_latency = 0;
  uint64_t injected_outage = 0;

  uint64_t total_injected() const {
    return injected_nan + injected_inf + injected_negative +
           injected_latency + injected_outage;
  }
};

/// Decorator over any WhatIfBackend. Thread-safe: the PRNG position, call
/// counter, and stats are guarded by an internal mutex (injected latency
/// is slept outside the lock so a stalled call does not serialize the
/// other lanes). Under concurrent callers the fault *schedule* — which
/// draw lands on call #n — is still the seeded deterministic sequence,
/// but which engine lookup gets which call number depends on thread
/// interleaving; tests that need call-exact fault placement must drive
/// the backend from one thread.
class FaultInjectingBackend : public costmodel::WhatIfBackend {
 public:
  /// `inner` is not owned and must outlive the decorator.
  FaultInjectingBackend(const costmodel::WhatIfBackend* inner,
                        const FaultInjectionOptions& options);

  double BaseCost(costmodel::QueryId j) const override;
  double CostWithIndex(costmodel::QueryId j,
                       const costmodel::Index& k) const override;
  double CostWithConfig(costmodel::QueryId j,
                        const costmodel::IndexConfig& config) const override;
  double IndexMemory(const costmodel::Index& k) const override;
  double MaintenanceCost(costmodel::QueryId j,
                         const costmodel::Index& k) const override;

  /// Snapshot of the per-kind counters (consistent under concurrency).
  FaultInjectionStats stats() const {
    common::MutexLock lock(&mu_);
    return stats_;
  }

 private:
  /// Applies latency + value corruption to one truthful answer.
  double Corrupt(double truthful) const;

  const costmodel::WhatIfBackend* inner_;
  FaultInjectionOptions opts_;
  // WhatIfBackend's interface is const; the chaos state (PRNG position,
  // call counter, stats) is the decorator's own business.
  mutable common::Mutex mu_;
  mutable Rng rng_ IDXSEL_GUARDED_BY(mu_);
  mutable FaultInjectionStats stats_ IDXSEL_GUARDED_BY(mu_);
  // Recurring burst-outage cursor (guarded by mu_): calls remaining in
  // the current healthy gap / failing burst. The gap stream draws from a
  // dedicated forked Rng so enabling the mode does not shift the
  // value-corruption draw schedule of existing seeds.
  mutable Rng outage_rng_ IDXSEL_GUARDED_BY(mu_);
  mutable uint64_t gap_remaining_ IDXSEL_GUARDED_BY(mu_) = 0;
  mutable uint64_t burst_remaining_ IDXSEL_GUARDED_BY(mu_) = 0;
};

}  // namespace idxsel::rt

#endif  // IDXSEL_RT_FAULT_INJECTION_H_
