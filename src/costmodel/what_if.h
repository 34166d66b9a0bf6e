// What-if cost estimation interface and caching engine.
//
// The paper obtains per-(query, index) costs from a what-if optimizer and
// stresses that such calls dominate runtime, so they must be cached and
// counted (Sections I-A, III-A). WhatIfBackend abstracts the cost source:
// the Appendix-B analytic model (Section III), or measured executions on
// the bundled column-store engine (Section IV-B). WhatIfEngine adds the
// cache and the call accounting that the paper's analysis relies on
// (H6 ~ 2*Q*q-bar calls vs CoPhy ~ Q*q-bar*|I|/N).

#ifndef IDXSEL_COSTMODEL_WHAT_IF_H_
#define IDXSEL_COSTMODEL_WHAT_IF_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "costmodel/cost_model.h"
#include "costmodel/index.h"
#include "exec/sharded_map.h"
#include "kernel/kernel.h"
#include "obs/obs.h"

namespace idxsel::costmodel {

/// Source of query costs and index sizes — "the what-if optimizer".
///
/// Thread-safety contract: parallel selection (exec::ThreadPool wired
/// through RecursiveSelector / mip::Solve / the advisor's portfolio mode)
/// issues concurrent calls, so backends must tolerate concurrent const
/// calls. The bundled backends do: ModelBackend is pure, MeasuredCostSource
/// serializes internally, rt::FaultInjectingBackend guards its PRNG.
class WhatIfBackend {
 public:
  virtual ~WhatIfBackend() = default;

  /// f_j(0): cost of query j without any index.
  virtual double BaseCost(QueryId j) const = 0;

  /// f_j(k): cost of query j when index k is available (k applicable).
  virtual double CostWithIndex(QueryId j, const Index& k) const = 0;

  /// f_j(I*): cost of query j when the whole configuration is available
  /// and multiple indexes may serve one query (Remark 2). The default
  /// implements the one-index-per-query setting of Example 1(i).
  virtual double CostWithConfig(QueryId j, const IndexConfig& config) const;

  /// p_k: memory footprint of index k in bytes.
  virtual double IndexMemory(const Index& k) const = 0;

  /// Per-execution maintenance cost write query j inflicts on index k;
  /// 0 by default (read-only backends).
  virtual double MaintenanceCost(QueryId j, const Index& k) const {
    (void)j;
    (void)k;
    return 0.0;
  }
};

/// Backend delegating to the Appendix-B analytic CostModel.
class ModelBackend : public WhatIfBackend {
 public:
  explicit ModelBackend(const CostModel* model) : model_(model) {
    IDXSEL_CHECK(model != nullptr);
  }

  double BaseCost(QueryId j) const override {
    return model_->UnindexedCost(j);
  }
  double CostWithIndex(QueryId j, const Index& k) const override {
    return model_->CostWithIndex(j, k);
  }
  double CostWithConfig(QueryId j, const IndexConfig& config) const override {
    return model_->CostMultiIndex(j, config);
  }
  double IndexMemory(const Index& k) const override {
    return model_->IndexMemory(k);
  }
  double MaintenanceCost(QueryId j, const Index& k) const override {
    return model_->MaintenanceCost(j, k);
  }

 private:
  const CostModel* model_;
};

/// Call counters; `calls` counts backend invocations (cache misses), i.e.
/// what the paper counts as "what-if optimizer calls".
///
/// This is a point-in-time *snapshot* of the per-engine numbers
/// ResetStats() rewinds (internally the counters are relaxed atomics so
/// parallel strategies can hammer the engine). Because the sharded caches
/// compute each key exactly once — concurrent requests for one key
/// serialize on its shard — the totals are the same whether a selection
/// ran on 1 thread or 8. Every increment is also mirrored onto
/// process-wide counters in obs::Registry::Default()
/// ("idxsel.whatif.calls" / ".cache_hits" / ".skipped_inapplicable",
/// "idxsel.rt.sanitized"), alongside a backend-latency histogram and live
/// cache-size gauges — see doc/observability.md.
struct WhatIfStats {
  uint64_t calls = 0;
  uint64_t cache_hits = 0;
  uint64_t skipped_inapplicable = 0;
  /// Backend answers rejected by the validating wrapper (non-finite or
  /// negative) and replaced by a safe fallback — see doc/robustness.md.
  uint64_t sanitized = 0;
};

/// Caching, call-counting, *validating* facade over a WhatIfBackend.
///
/// Inapplicable (query, index) pairs are answered with f_j(0) without
/// consulting the backend — a real advisor would not issue a what-if call
/// for an index whose leading attribute the query does not touch.
///
/// Validation: a hostile or broken backend (NaN/Inf/negative costs — see
/// rt::FaultInjectingBackend) must not corrupt benefit ratios, knapsack
/// bounds, or budgets. Every backend answer is checked; garbage is
/// replaced with a safe fallback (costs: f_j(0), itself clamped to 0 when
/// garbage; sizes: +infinity, so the index can never be selected under a
/// finite budget), counted in stats().sanitized, and recorded once in
/// health() as a non-OK Status instead of propagating into selections.
///
/// Cache keys are canonicalized to (query, coverable-prefix-attribute-set):
/// the cost of q_j under k only depends on the prefix of k the query can
/// exploit, and not on the order within that prefix. Recognizing equivalent
/// what-if calls this way is the INUM-style reuse the paper recommends. The
/// dense id-addressed tables (idxsel::kernel) sit in front of these keyed
/// caches and rely on the same invariant: a dense cost row is inherited
/// across an append for every query the extension cannot exploit.
///
/// Concurrency: every method is safe to call from any number of threads.
/// The caches are exec::ShardedMap instances (per-shard mutex, shard
/// chosen from mixed high hash bits); a cache miss computes the backend
/// answer while holding its shard lock, so each distinct key costs exactly
/// one backend call no matter how many threads race for it. The obs
/// cache-size gauges are incremented by the one computing thread and
/// decremented on Clear/destruction, keeping them equal to the live entry
/// counts at all times.
class WhatIfEngine {
 public:
  WhatIfEngine(const workload::Workload* workload, WhatIfBackend* backend);
  ~WhatIfEngine();

  // Non-copyable: the engine owes its cached-entry counts to the global
  // cache-size gauges; a copy would pay them back twice on destruction.
  WhatIfEngine(const WhatIfEngine&) = delete;
  WhatIfEngine& operator=(const WhatIfEngine&) = delete;

  const workload::Workload& workload() const { return *workload_; }

  /// The uncached cost source this engine consults. Borrowed, never null.
  /// idxsel::shard wraps it in per-shard id-translating views so each
  /// shard's private engine asks the same backend the unsharded run would.
  const WhatIfBackend& backend() const { return *backend_; }

  /// Cached f_j(0).
  double BaseCost(QueryId j);

  /// Cached f_j(k). Returns BaseCost(j) for inapplicable k (no call).
  double CostWithIndex(QueryId j, const Index& k);

  /// p_k; cached (sizes are deterministic per index).
  double IndexMemory(const Index& k);

  /// Frequency-weighted maintenance the write queries inflict on index k:
  /// sum over writes j of b_j * MaintenanceCost(j, k). Cached per index;
  /// 0 for read-only workloads. Modular in the selection, so WorkloadCost
  /// adds it once per selected index.
  double MaintenancePenalty(const Index& k);

  /// Total memory of a configuration.
  double ConfigMemory(const IndexConfig& config);

  /// F(I*) under the one-index-per-query setting of Example 1(i):
  /// sum_j b_j * min(f_j(0), min_{k in I*} f_j(k)).
  double WorkloadCost(const IndexConfig& config);

  /// f_j(I*) in the multi-index setting (Remark 2); cached per
  /// (query, configuration). Configuration-level caching cannot reuse
  /// entries across different configurations, which is exactly why the
  /// paper notes that earlier what-if calls "have to be refreshed" in this
  /// mode.
  double CostWithConfig(QueryId j, const IndexConfig& config);

  /// F(I*) in the multi-index setting: sum_j b_j f_j(I*).
  double WorkloadCostMultiIndex(const IndexConfig& config);

  /// True iff l(k) is in q_j and both are on the same table.
  bool Applicable(QueryId j, const Index& k) const;

  // -- Introspection for audit::InvariantAuditor ---------------------------
  // Read-only peeks into the caches: never compute, never touch stats, so
  // an audit pass cannot perturb the call counts it runs beside.

  /// The canonical cache key CostWithIndex files f_j(k) under: the
  /// coverable-prefix attribute set of k for q_j, sorted. Requires
  /// Applicable(j, k).
  Index CanonicalCostIndex(QueryId j, const Index& k) const;

  /// True iff the hashed cost cache holds an entry for
  /// (j, CanonicalCostIndex(j, k)); writes the cached value to *out.
  bool PeekCachedCost(QueryId j, const Index& k, double* out) const;

  /// True iff the hashed memory cache holds p_k; writes it to *out.
  bool PeekCachedMemory(const Index& k, double* out) const;

  /// Point-in-time snapshot of the per-engine call counters.
  WhatIfStats stats() const {
    WhatIfStats s;
    s.calls = stats_.calls.load(std::memory_order_relaxed);
    s.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
    s.skipped_inapplicable =
        stats_.skipped_inapplicable.load(std::memory_order_relaxed);
    s.sanitized = stats_.sanitized.load(std::memory_order_relaxed);
    return s;
  }

  /// OK while the backend has only ever returned well-formed answers;
  /// after the first rejected value, the Status describing that first
  /// failure (the engine keeps serving sanitized fallbacks either way).
  /// Strategies keep running; the advisor surfaces this as `degraded`.
  Status health() const {
    common::MutexLock lock(&health_mu_);
    return health_;
  }

  /// Forgives recorded backend misbehaviour: health() returns to OK.
  /// The serve-layer self-heal pairs this with InvalidateCostCache once a
  /// half-open probe succeeds — the flushed caches re-consult the (now
  /// healthy) backend, so a sticky health verdict would mislabel every
  /// later recommendation as degraded (doc/serve.md).
  void ResetHealth() {
    common::MutexLock lock(&health_mu_);
    health_ = Status::Ok();
  }

  /// Rewinds the per-engine call counters to zero. Deliberately does NOT
  /// touch the registry: the process-wide call counters are cumulative by
  /// design (run reports diff snapshots instead), and the cache-size
  /// gauges mirror the *live* cache contents — zeroing them here would
  /// desynchronize them from caches that still hold entries.
  void ResetStats() {
    stats_.calls.store(0, std::memory_order_relaxed);
    stats_.cache_hits.store(0, std::memory_order_relaxed);
    stats_.skipped_inapplicable.store(0, std::memory_order_relaxed);
    stats_.sanitized.store(0, std::memory_order_relaxed);
  }

  /// Drops all cached costs (sizes are kept); used by tests and by callers
  /// that change the backend's state (e.g. measured costs after reloads).
  /// Not safe concurrently with in-flight estimations.
  void InvalidateCostCache();

  /// Drops exactly the cached state that depends on query *frequencies*:
  /// the per-index maintenance penalties (MaintenancePenalty sums
  /// b_j * MaintenanceCost over write queries) and their dense mirror.
  /// Per-execution costs f_j(k), base costs f_j(0), and index sizes p_k
  /// are frequency-free and stay warm — this is the hook that makes
  /// serve's incremental re-selection after a frequency shift nearly
  /// backend-call-free (doc/serve.md). Like InvalidateCostCache, not safe
  /// concurrently with in-flight estimations.
  void InvalidateFrequencyDependentCaches();

  // -- Dense id-addressed API (idxsel::kernel) -----------------------------
  // Same values and accounting as the keyed calls above, which back every
  // dense miss (doc/cost_model.md).

  /// The engine-owned intern arena. Ids are stable for the engine lifetime.
  kernel::IndexArena& arena() { return dense_->arena; }
  const kernel::IndexArena& arena() const { return dense_->arena; }

  /// Raw dense cost-table read (NaN = unset); no stats, no fallback, no
  /// fill. Audit-only: cross-validates dense slots against the hashed
  /// cache. `slot` must be within the posting list of id's leading
  /// attribute.
  double PeekDenseCost(kernel::IndexId id, uint32_t slot) const {
    return dense_->costs.Get(id, slot);
  }

  /// Raw dense memory-table read (NaN = unset); audit-only.
  double PeekDenseMemory(kernel::IndexId id) const {
    return dense_->memory.Get(id);
  }

  /// Batched PeekDenseCost: gathers id's row at `slots[0..n)` into `out`
  /// and reports whether every addressed slot is set. No stats, no
  /// fallback, no fill — the warmth probe of the batched evaluation (a
  /// cold probe must leave nothing to compensate before the caller
  /// demotes to the per-call path) and the audit layer's bulk reader.
  bool PeekDenseCostBlock(kernel::IndexId id, const uint32_t* slots, size_t n,
                          double* out) const;

  /// Per-query 64-bit attribute masks (built once at construction).
  const kernel::QueryMasks& query_masks() const { return dense_->masks; }

  /// Interns `k`, returning its dense id.
  kernel::IndexId InternIndex(const Index& k) {
    return dense_->arena.Intern(k.attributes().data(),
                                static_cast<uint32_t>(k.attributes().size()));
  }

  /// Rebuilds the Index value for an interned id.
  Index MaterializeIndex(kernel::IndexId id) const;

  /// Cached f_j(k) addressed by dense id. `slot` is j's position in the
  /// posting list of l(k) (workload().queries_with(l(k))); callers walking
  /// posting lists already know it. On a dense-table hit this is one array
  /// load (counted as a cache hit — the hashed cache provably holds the
  /// canonical key too, see doc/cost_model.md); on a miss it falls back to
  /// the keyed path and then fills the dense slot.
  double CostWithIndexDense(QueryId j, kernel::IndexId id, uint32_t slot);

  /// CostWithIndexDense for callers that do not know the posting slot;
  /// resolves it with a binary search over the posting list.
  double CostWithIndexDenseSlow(QueryId j, kernel::IndexId id);

  /// Batched what-if evaluation: one candidate id against a whole query
  /// block in a single pass over its dense row. `slots[0..n)` are posting
  /// slots of the id's leading attribute; on success `out[t]` receives
  /// exactly the value CostWithIndexDense(posting[slots[t]], id, slots[t])
  /// would have returned, and the same accounting (n cache hits, n
  /// fast-path hits) is applied in bulk.
  ///
  /// All-or-nothing: if ANY addressed slot is still unset (or the row does
  /// not exist), returns false having consumed NOTHING — no stats, no
  /// backend calls, no fills. The caller then falls back to the per-call
  /// API, whose backend call order is the one the bit-identity contract
  /// (and rt::FaultInjectingBackend's PRNG stream) depends on. A warm
  /// block has no backend interaction at all, which is why batching it
  /// cannot perturb call order.
  bool CostWithIndexBatch(kernel::IndexId id, const uint32_t* slots, size_t n,
                          double* out);

  /// p_k / frequency-weighted maintenance addressed by dense id.
  double IndexMemoryDense(kernel::IndexId id);
  double MaintenancePenaltyDense(kernel::IndexId id);

  /// Copies `from`'s dense cost row into unset slots of `to`'s row. Sound
  /// only when every query either exploits the extension (its slot was
  /// recomputed before the call) or provably cannot (f_j identical — the
  /// canonicalization invariant); the H6 commit step is the only caller.
  void InheritCostRow(kernel::IndexId from, kernel::IndexId to);

 private:
  /// Returns `value` if it is a well-formed cost/size (finite, >= 0);
  /// otherwise counts the rejection, records the first failure in
  /// health_, and returns `fallback`. `what` names the backend method for
  /// the health message.
  double Sanitize(double value, double fallback, const char* what);

  struct Key {
    QueryId query;
    Index index;
    bool operator==(const Key& o) const {
      return query == o.query && index == o.index;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // SplitMix64-mixed combination (common/hash.h): the previous
      // `index.Hash() * 1000003 + query` chaining left sequential query
      // ids clustered in the low bits, which both unordered_map bucketing
      // and shard selection consume.
      return HashCombine(SplitMix64(k.query), k.index.Hash());
    }
  };

  struct ConfigKey {
    QueryId query;
    IndexConfig config;
    bool operator==(const ConfigKey& o) const {
      return query == o.query && config == o.config;
    }
  };
  struct ConfigKeyHash {
    size_t operator()(const ConfigKey& k) const {
      uint64_t h = SplitMix64(k.query);
      for (const Index& index : k.config.indexes()) {
        h = HashCombine(h, index.Hash());
      }
      return h;
    }
  };

  const workload::Workload* workload_;
  WhatIfBackend* backend_;

  /// Relaxed atomics: see WhatIfStats docs for the determinism argument.
  struct AtomicStats {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> skipped_inapplicable{0};
    std::atomic<uint64_t> sanitized{0};
  };
  AtomicStats stats_;

  mutable common::Mutex health_mu_;
  Status health_ IDXSEL_GUARDED_BY(health_mu_);  // first misbehaviour, or OK

  // Process-wide mirrors (resolved once; see WhatIfStats docs).
  obs::Counter* obs_calls_;
  obs::Counter* obs_hits_;
  obs::Counter* obs_skipped_;
  obs::Counter* obs_sanitized_;      ///< idxsel.rt.sanitized.
  obs::Histogram* obs_latency_;      ///< idxsel.whatif.backend_latency_ns.
  obs::Gauge* obs_cost_entries_;     ///< idxsel.whatif.cost_cache_entries.
  obs::Gauge* obs_config_entries_;   ///< idxsel.whatif.config_cache_entries.

  /// f_j(0) per query; NaN = not yet fetched. Fast path is one relaxed
  /// atomic load; misses serialize on a small lock stripe so each query's
  /// base cost is fetched exactly once.
  std::unique_ptr<std::atomic<double>[]> base_cost_;
  static constexpr size_t kBaseLockStripes = 16;
  /// Lock stripes for base_cost_ misses: stripe j%16 serializes the fill
  /// of slot j. Element-wise guarding is beyond IDXSEL_GUARDED_BY (the
  /// guarded expression must name one capability), so the fill discipline
  /// is stated here and enforced by review + TSan.
  // idxsel-lint: allow(guarded-field) reason=striped locks; element-wise
  // guarding of base_cost_ slots is inexpressible in the annotations
  std::array<common::Mutex, kBaseLockStripes> base_mu_;

  exec::ShardedMap<Key, double, KeyHash> cost_cache_;
  exec::ShardedMap<ConfigKey, double, ConfigKeyHash> config_cost_cache_;
  exec::ShardedMap<Index, double, IndexHash> memory_cache_;
  exec::ShardedMap<Index, double, IndexHash> maintenance_cache_;
  std::vector<QueryId> write_queries_;  // precomputed at construction

  /// Dense-id-addressed state. Heap-allocated: the block-pointer
  /// directories inside the tables are hundreds of KB and the engine is
  /// routinely stack-constructed.
  struct DenseState {
    explicit DenseState(const workload::Workload& w) : masks(w) {}
    kernel::IndexArena arena;
    kernel::QueryMasks masks;
    kernel::DenseCostTable costs;        ///< f_j(k) by (id, posting slot).
    kernel::DenseValueTable memory;      ///< p_k by id.
    kernel::DenseValueTable maintenance; ///< maintenance penalty by id.
  };
  std::unique_ptr<DenseState> dense_;
  obs::Counter* obs_kernel_fast_;      ///< idxsel.kernel.fast_path_hits.
  obs::Counter* obs_kernel_fallback_;  ///< idxsel.kernel.fallback_lookups.
};

}  // namespace idxsel::costmodel

#endif  // IDXSEL_COSTMODEL_WHAT_IF_H_
