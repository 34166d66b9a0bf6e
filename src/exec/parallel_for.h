// idxsel::exec — the thread-count knob and the one parallel loop of the
// selection pipeline.
//
// Threads pay only where the subproblems are independent and heavy: the
// branch-and-bound's subtrees, the advisor's portfolio lanes, and the
// Remark-2 evaluators' CostWithConfig moves. Plain H6 and the shard
// layer run serially, because a memoized H6 round re-evaluates only the
// few units the last commit changed (doc/parallelism.md has the
// measurements). Each of those callers makes one ParallelFor call per
// solve, race or round, so the loop owns its threads: it starts them,
// lets the caller work beside them, and joins them before returning.
//
// Determinism contract: ParallelFor promises nothing about execution
// order. Deterministic results are the callers' responsibility and they
// achieve it by separating parallel evaluation from sequential reduction
// (see RecursiveSelector) or by timing-independent pruning margins (see
// mip::Solve). doc/parallelism.md spells out both patterns.

#ifndef IDXSEL_EXEC_PARALLEL_FOR_H_
#define IDXSEL_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace idxsel::exec {

/// Number of threads the pipeline should use when the caller asked for
/// "auto" (threads == 0): the IDXSEL_THREADS environment variable when set
/// to a positive integer, otherwise std::thread::hardware_concurrency(),
/// clamped to [1, kMaxThreads].
size_t DefaultThreads();

/// Upper clamp for DefaultThreads() and for explicit thread counts; keeps
/// a misconfigured IDXSEL_THREADS from spawning thousands of threads.
inline constexpr size_t kMaxThreads = 64;

/// Resolves a user-facing thread-count option: 0 = DefaultThreads(),
/// anything else clamped to [1, kMaxThreads].
size_t ResolveThreads(size_t requested);

/// Runs body(i) for every i in [0, n) on min(threads, n) lanes (threads
/// clamped to kMaxThreads) and returns when all n iterations completed.
/// The call starts one thread per extra lane; those threads and the
/// calling thread claim one index at a time from a shared atomic cursor
/// until it runs out, and the call joins the threads before it returns.
/// One lane runs the plain loop on the caller in ascending order and
/// starts nothing. Because every call owns its threads, a ParallelFor
/// inside a body cannot deadlock. `body` must not throw and must tolerate
/// concurrent invocation for distinct i. A call that starts threads bumps
/// idxsel.exec.parallel_fors.
void ParallelFor(size_t threads, size_t n,
                 const std::function<void(size_t)>& body);

}  // namespace idxsel::exec

#endif  // IDXSEL_EXEC_PARALLEL_FOR_H_
