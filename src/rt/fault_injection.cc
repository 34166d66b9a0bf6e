#include "rt/fault_injection.h"

#include <chrono>
#include <limits>
#include <thread>

#include "common/check.h"
#include "common/float_cmp.h"
#include "common/hash.h"
#include "obs/obs.h"

namespace idxsel::rt {
namespace {

obs::Counter* InjectedCounter() {
  static obs::Counter* counter =
      obs::Registry::Default().GetCounter("idxsel.rt.fault_injected");
  return counter;
}

}  // namespace

FaultInjectingBackend::FaultInjectingBackend(
    const costmodel::WhatIfBackend* inner,
    const FaultInjectionOptions& options)
    : inner_(inner),
      opts_(options),
      rng_(options.seed),
      outage_rng_(SplitMix64(options.seed ^ 0x6f757461676500ULL)) {
  IDXSEL_CHECK(inner != nullptr);
  if (opts_.outage_burst > 0) {
    IDXSEL_CHECK_LE(opts_.outage_gap_min, opts_.outage_gap_max);
    gap_remaining_ = static_cast<uint64_t>(outage_rng_.UniformInt(
        static_cast<int64_t>(opts_.outage_gap_min),
        static_cast<int64_t>(opts_.outage_gap_max)));
  }
}

double FaultInjectingBackend::Corrupt(double truthful) const {
  // The draw, counter, and stats updates happen under the lock; the
  // injected latency is slept *after* releasing it, so one stalled call
  // does not serialize concurrent lanes (and TSan sees no lock held
  // across a sleep).
  bool sleep = false;
  double result = truthful;
  {
    common::MutexLock lock(&mu_);
    const uint64_t call = stats_.calls++;
    if (call < opts_.healthy_calls) return truthful;

    // Transient outage window dominates every probabilistic draw.
    if (opts_.fail_burst > 0 && call >= opts_.fail_after_calls &&
        call < opts_.fail_after_calls + opts_.fail_burst) {
      ++stats_.injected_outage;
      InjectedCounter()->Add();
      return std::numeric_limits<double>::quiet_NaN();
    }

    // Recurring burst outages (seeded gap stream, see the options docs).
    if (opts_.outage_burst > 0) {
      if (burst_remaining_ > 0) {
        --burst_remaining_;
        if (burst_remaining_ == 0) {
          gap_remaining_ = static_cast<uint64_t>(outage_rng_.UniformInt(
              static_cast<int64_t>(opts_.outage_gap_min),
              static_cast<int64_t>(opts_.outage_gap_max)));
        }
        ++stats_.injected_outage;
        InjectedCounter()->Add();
        return std::numeric_limits<double>::quiet_NaN();
      }
      if (gap_remaining_ == 0) {
        burst_remaining_ = opts_.outage_burst - 1;
        if (burst_remaining_ == 0) {
          gap_remaining_ = static_cast<uint64_t>(outage_rng_.UniformInt(
              static_cast<int64_t>(opts_.outage_gap_min),
              static_cast<int64_t>(opts_.outage_gap_max)));
        }
        ++stats_.injected_outage;
        InjectedCounter()->Add();
        return std::numeric_limits<double>::quiet_NaN();
      }
      --gap_remaining_;
    }

    if (opts_.latency_probability > 0.0 &&
        rng_.NextDouble() < opts_.latency_probability) {
      ++stats_.injected_latency;
      InjectedCounter()->Add();
      sleep = true;
    }

    // Value corruptions are mutually exclusive: one draw, first band wins
    // — keeps the draw count per call fixed so seeds stay comparable
    // across option changes.
    const double draw = rng_.NextDouble();
    double band = opts_.nan_probability;
    if (draw < band) {
      ++stats_.injected_nan;
      InjectedCounter()->Add();
      result = std::numeric_limits<double>::quiet_NaN();
    } else if (draw < (band += opts_.inf_probability)) {
      ++stats_.injected_inf;
      InjectedCounter()->Add();
      result = std::numeric_limits<double>::infinity();
    } else if (draw < (band += opts_.negative_probability)) {
      ++stats_.injected_negative;
      InjectedCounter()->Add();
      result = !ExactlyZero(truthful) ? -truthful : -1.0;
    }
  }
  if (sleep) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opts_.latency_seconds));
  }
  return result;
}

double FaultInjectingBackend::BaseCost(costmodel::QueryId j) const {
  return Corrupt(inner_->BaseCost(j));
}

double FaultInjectingBackend::CostWithIndex(costmodel::QueryId j,
                                            const costmodel::Index& k) const {
  return Corrupt(inner_->CostWithIndex(j, k));
}

double FaultInjectingBackend::CostWithConfig(
    costmodel::QueryId j, const costmodel::IndexConfig& config) const {
  return Corrupt(inner_->CostWithConfig(j, config));
}

double FaultInjectingBackend::IndexMemory(const costmodel::Index& k) const {
  return Corrupt(inner_->IndexMemory(k));
}

double FaultInjectingBackend::MaintenanceCost(costmodel::QueryId j,
                                              const costmodel::Index& k) const {
  return Corrupt(inner_->MaintenanceCost(j, k));
}

}  // namespace idxsel::rt
