// Annotated mutex primitives — the lock types the thread-safety analysis
// can see.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability attributes,
// so Clang's -Wthread-safety cannot track them: a tree locking through
// them would either analyze nothing or warn on every guarded access. These
// zero-cost wrappers restate the standard types with the annotations from
// common/thread_annotations.h:
//
//   common::Mutex      std::mutex as an IDXSEL_CAPABILITY("mutex")
//   common::MutexLock  std::lock_guard as an IDXSEL_SCOPED_CAPABILITY
//   common::CondVar    std::condition_variable bound to a common::Mutex;
//                      every wait IDXSEL_REQUIRES the mutex
//
// Convention (enforced by review + the idxsel_lint `guarded-field` and
// `lock-order` checks): mutex-holding classes declare `common::Mutex mu_;`,
// guard their shared fields with IDXSEL_GUARDED_BY(mu_), and lock through
// `common::MutexLock lock(&mu_);`. Raw lock()/unlock() calls are for the
// rare split acquire/release shapes only. See doc/static_analysis.md
// ("Concurrency contracts").

#ifndef IDXSEL_COMMON_MUTEX_H_
#define IDXSEL_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace idxsel::common {

/// std::mutex with the capability attributes the analysis needs. Same
/// size, same semantics; never recursive.
class IDXSEL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() IDXSEL_ACQUIRE() { mu_.lock(); }
  void unlock() IDXSEL_RELEASE() { mu_.unlock(); }
  bool try_lock() IDXSEL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a common::Mutex — std::lock_guard restated as a scoped
/// capability so the analysis knows the guarded region's extent.
class IDXSEL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) IDXSEL_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() IDXSEL_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to common::Mutex. Internally adopts the
/// already-held lock into a std::unique_lock for the wait and releases the
/// adoption before returning, so the caller's MutexLock stays the one true
/// owner — no condition_variable_any, no second mutex, no extra cost.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified or `deadline` passed; returns false on timeout.
  /// `mu` must be held (it is released during the wait and reacquired
  /// before return, like std::condition_variable). The predicate-free
  /// shape for hand-written wait loops whose condition reads guarded
  /// fields (re-check the condition after every return): the analysis
  /// cannot see that a predicate lambda runs under `mu`.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      IDXSEL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();  // ownership stays with the caller's guard
    return status == std::cv_status::no_timeout;
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace idxsel::common

#endif  // IDXSEL_COMMON_MUTEX_H_
