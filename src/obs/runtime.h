// Runtime on/off switch and the monotonic clock of idxsel::obs.
//
// One gate keeps observability cheap when unwanted: Enabled() starts false
// (or true when the IDXSEL_OBS environment variable is "1") and is flipped
// with SetEnabled(). While disabled, spans read one relaxed atomic and
// touch neither the clock nor any allocation; counters and gauges stay
// live because they are as cheap as the plain struct fields they replaced.

#ifndef IDXSEL_OBS_RUNTIME_H_
#define IDXSEL_OBS_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>

namespace idxsel::obs {

namespace internal {

inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{[] {
    const char* v = std::getenv("IDXSEL_OBS");
    return v != nullptr && v[0] == '1';
  }()};
  return flag;
}

}  // namespace internal

/// True iff span tracing and latency histograms are active.
inline bool Enabled() {
  return internal::EnabledFlag().load(std::memory_order_relaxed);
}

/// Turns span tracing and latency histograms on or off at run time.
inline void SetEnabled(bool on) {
  internal::EnabledFlag().store(on, std::memory_order_relaxed);
}

/// Monotonic timestamp in nanoseconds (steady-clock epoch; only meaningful
/// as differences and for ordering within one process).
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Small dense id of the calling thread (1, 2, ... in first-use order);
/// stable for the thread's lifetime. Used as the Chrome-trace tid.
inline uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace idxsel::obs

#endif  // IDXSEL_OBS_RUNTIME_H_
