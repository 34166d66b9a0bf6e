#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

// The fan-out counter goes through the dependency-free telemetry slots:
// the layering DAG forbids exec -> obs, and obs bridges the slots into
// every Registry snapshot under the "idxsel.exec.*" names
// (doc/observability.md).
#include "common/telemetry.h"

namespace idxsel::exec {

size_t DefaultThreads() {
  static const size_t resolved = [] {
    if (const char* env = std::getenv("IDXSEL_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1) return std::min<size_t>(static_cast<size_t>(v), kMaxThreads);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::min<size_t>(std::max(1u, hw), kMaxThreads);
  }();
  return resolved;
}

size_t ResolveThreads(size_t requested) {
  if (requested == 0) return DefaultThreads();
  return std::min(std::max<size_t>(requested, 1), kMaxThreads);
}

void ParallelFor(size_t threads, size_t n,
                 const std::function<void(size_t)>& body) {
  const size_t lanes = std::min({threads, n, kMaxThreads});
  if (lanes <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  telemetry::Add(telemetry::Slot::kExecParallelFors);

  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  // Declared after `next` and `drain`, so ~jthread joins every worker —
  // on an unwinding path too — before what they use is destroyed; the
  // join orders every body's writes before the caller's next read.
  std::vector<std::jthread> workers;
  workers.reserve(lanes - 1);
  for (size_t w = 1; w < lanes; ++w) workers.emplace_back(drain);
  drain();
}

}  // namespace idxsel::exec
