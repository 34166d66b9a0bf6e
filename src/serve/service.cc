#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define IDXSEL_SERVE_HAVE_FSYNC 1
#endif

#include "common/check.h"
#include "common/mutex.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "workload/parser.h"

namespace idxsel::serve {
namespace {

using telemetry::Add;
using telemetry::Slot;

constexpr const char* kCheckpointFile = "checkpoint.idxsel";
constexpr const char* kDeltaLogFile = "deltas.log";
constexpr const char* kEpochLogFile = "epochs.jsonl";

/// Watchdog for one selection attempt: fires the cancellation token when
/// the round outlives its budget. Tick-free rounds (infinite budget)
/// never construct one.
class Watchdog {
 public:
  Watchdog(double seconds, rt::CancellationToken* token) {
    thread_ = std::thread([this, seconds, token] { Run(seconds, token); });
  }

  /// Stops the timer; returns true iff it already fired.
  bool Disarm() {
    {
      common::MutexLock lock(&mu_);
      disarmed_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
    common::MutexLock lock(&mu_);  // join ordered the write; lock for TSA
    return fired_;
  }

 private:
  /// Timer-thread body: sleeps out the budget against a fixed deadline,
  /// re-checking disarmed_ across wakeups, and fires the token exactly
  /// when the deadline passes while still armed. steady_clock (monotonic,
  /// the clock cv waits use anyway) — never wall time.
  void Run(double seconds, rt::CancellationToken* token) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    common::MutexLock lock(&mu_);
    while (!disarmed_) {
      if (!cv_.WaitUntil(mu_, deadline) && !disarmed_) {
        fired_ = true;
        token->RequestCancel();
        return;
      }
    }
  }

  common::Mutex mu_;
  common::CondVar cv_;
  bool disarmed_ IDXSEL_GUARDED_BY(mu_) = false;
  bool fired_ IDXSEL_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

std::string JoinPath(const std::string& dir, const char* file) {
  if (dir.empty()) return {};
  return dir.back() == '/' ? dir + file : dir + "/" + file;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::NotFound("cannot open " + path);
  std::string body;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    body.append(buf, got);
  }
  std::fclose(file);
  return body;
}

}  // namespace

const char* ServiceStateName(ServiceState state) {
  switch (state) {
    case ServiceState::kIdle:
      return "idle";
    case ServiceState::kDegraded:
      return "degraded";
    case ServiceState::kStopped:
      return "stopped";
  }
  return "unknown";
}

/// Backend over the analytic model that owns its CostModel (the factory's
/// returned backends must be self-contained).
class OwningModelBackend : public costmodel::WhatIfBackend {
 public:
  OwningModelBackend(const workload::Workload& w,
                     const costmodel::CostModelParams& params)
      : model_(&w, params), inner_(&model_) {}

  double BaseCost(costmodel::QueryId j) const override {
    return inner_.BaseCost(j);
  }
  double CostWithIndex(costmodel::QueryId j,
                       const costmodel::Index& k) const override {
    return inner_.CostWithIndex(j, k);
  }
  double CostWithConfig(costmodel::QueryId j,
                        const costmodel::IndexConfig& config) const override {
    return inner_.CostWithConfig(j, config);
  }
  double IndexMemory(const costmodel::Index& k) const override {
    return inner_.IndexMemory(k);
  }
  double MaintenanceCost(costmodel::QueryId j,
                         const costmodel::Index& k) const override {
    return inner_.MaintenanceCost(j, k);
  }

 private:
  costmodel::CostModel model_;
  costmodel::ModelBackend inner_;
};

BackendFactory MakeModelBackendFactory(costmodel::CostModelParams params) {
  return [params](const workload::Workload& w)
             -> std::unique_ptr<costmodel::WhatIfBackend> {
    return std::make_unique<OwningModelBackend>(w, params);
  };
}

AdvisorService::AdvisorService(const workload::NamedWorkload& base,
                               BackendFactory factory,
                               const ServiceOptions& options)
    : base_(base.workload),
      names_(base.attribute_names),
      factory_(std::move(factory)),
      options_(options),
      budget_fraction_(options.advisor.budget_fraction),
      budget_bytes_(options.advisor.budget_bytes),
      queue_(options.queue_capacity),
      backoff_(options.backoff),
      breaker_(options.breaker) {}

Result<std::unique_ptr<AdvisorService>> AdvisorService::Start(
    const workload::NamedWorkload& base, BackendFactory factory,
    const ServiceOptions& options) {
  IDXSEL_CHECK(factory != nullptr);
  if (base.workload.num_queries() == 0) {
    return Status::InvalidArgument("serve: base workload has no queries");
  }
  if (base.attribute_names.size() != base.workload.num_attributes()) {
    return Status::InvalidArgument("serve: attribute names missing");
  }
  std::unique_ptr<AdvisorService> service(
      new AdvisorService(base, std::move(factory), options));
  if (!options.dir.empty()) {
    const Status recovered = service->TryRecover();
    if (!recovered.ok()) {
      // Cold start: missing checkpoint is the normal first boot; a
      // rejected (corrupt / truncated / version-skewed) one is discarded
      // wholesale — never partially loaded. Either way the delta log is
      // replayed from the top (a crash before the first commit leaves
      // journaled deltas but no checkpoint) and any journal lines from a
      // discarded history are truncated.
      service->ColdStart();
      ++service->stats_.cold_starts;
      Add(Slot::kServeColdStarts);
      service->ReconcileEpochJournal(0);
      const Status replay = service->ReplayDeltaLog(0);
      if (!replay.ok()) return replay;
    } else {
      ++service->stats_.recoveries;
      Add(Slot::kServeRecoveries);
    }
    const Status log = service->OpenDeltaLog();
    if (!log.ok()) return log;
  } else {
    service->ColdStart();
    ++service->stats_.cold_starts;
    Add(Slot::kServeColdStarts);
  }
  return service;
}

AdvisorService::~AdvisorService() {
  if (delta_log_ != nullptr) std::fclose(delta_log_);
}

void AdvisorService::Hook(const char* point) {
  if (options_.hooks.at) options_.hooks.at(point);
}

void AdvisorService::SleepFor(double seconds) {
  if (options_.hooks.sleep) {
    options_.hooks.sleep(seconds);
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

std::string AdvisorService::checkpoint_path() const {
  return JoinPath(options_.dir, kCheckpointFile);
}
std::string AdvisorService::delta_log_path() const {
  return JoinPath(options_.dir, kDeltaLogFile);
}
std::string AdvisorService::epoch_log_path() const {
  return JoinPath(options_.dir, kEpochLogFile);
}

// ---------------------------------------------------------------------------
// Boot: cold start & recovery.
// ---------------------------------------------------------------------------

void AdvisorService::ColdStart() {
  templates_.clear();
  for (const workload::Query& q : base_.queries()) {
    templates_.push_back(TemplateEntry{q.table, q.attributes, q.frequency,
                                       q.kind == workload::QueryKind::kWrite});
  }
  epoch_ = 0;
  cursor_ = 0;
  log_lines_ = 0;
  drift_ = 0.0;
  pending_structural_ = false;
  pending_budget_ = false;
  pending_shift_ = false;
  committed_rec_ = advisor::Recommendation{};
  committed_plan_ = DeploymentPlan{};
  committed_degraded_ = true;
  RebuildEngine();
  // Cold starts rebuild by definition; only count rebuilds caused by
  // structural deltas.
  stats_.engine_rebuilds = 0;
}

Status AdvisorService::TryRecover() {
  auto loaded = LoadCheckpoint(checkpoint_path());
  if (!loaded.ok()) return loaded.status();
  const Checkpoint& cp = loaded.value();

  // The checkpoint's workload block carries the *queries* (templates and
  // shifted frequencies); the schema — tables, attributes, their global
  // ids — always comes from the base workload, with the checkpoint's
  // attribute names mapped back onto base ids. This keeps recovered
  // selections (which reference base attribute ids) valid and makes the
  // rebuilt workload bit-identical to the crashed one.
  auto parsed = workload::ParseWorkload(cp.workload_text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("checkpoint workload rejected: " +
                                   parsed.status().message());
  }
  std::vector<int64_t> to_base(parsed->workload.num_attributes(), -1);
  for (size_t a = 0; a < parsed->attribute_names.size(); ++a) {
    for (size_t b = 0; b < names_.size(); ++b) {
      if (names_[b] == parsed->attribute_names[a]) {
        to_base[a] = static_cast<int64_t>(b);
        break;
      }
    }
    if (to_base[a] < 0) {
      return Status::InvalidArgument(
          "checkpoint names unknown attribute '" + parsed->attribute_names[a] +
          "'");
    }
  }
  std::vector<TemplateEntry> templates;
  for (const workload::Query& q : parsed->workload.queries()) {
    TemplateEntry entry;
    entry.frequency = q.frequency;
    entry.write = q.kind == workload::QueryKind::kWrite;
    for (const workload::AttributeId a : q.attributes) {
      const auto base_id =
          static_cast<workload::AttributeId>(to_base[a]);
      entry.attrs.push_back(base_id);
      entry.table = base_.attribute(base_id).table;
    }
    std::sort(entry.attrs.begin(), entry.attrs.end());
    templates.push_back(std::move(entry));
  }

  templates_ = std::move(templates);
  epoch_ = cp.epoch;
  cursor_ = cp.cursor;
  drift_ = cp.drift;
  pending_structural_ = false;
  pending_budget_ = false;
  pending_shift_ = drift_ > 0.0;  // still counting toward the threshold
  budget_fraction_ = cp.budget_fraction;
  budget_bytes_ = cp.budget_bytes;
  RebuildEngine();
  stats_.engine_rebuilds = 0;

  // Rehydrate the served answer from the snapshot (the full advisor
  // Recommendation is not persisted; the fields that matter for serving
  // and for determinism are).
  committed_rec_ = advisor::Recommendation{};
  committed_rec_.selection = cp.selection;
  committed_rec_.budget = budget_bytes_;
  committed_rec_.memory = cp.memory;
  committed_rec_.cost_before = cp.cost_before;
  committed_rec_.cost_after = cp.cost_after;
  committed_plan_ = cp.plan;
  if (committed_plan_.budget > 0.0) {
    committed_rec_.budget = committed_plan_.budget;  // the round's budget
  }
  committed_degraded_ = cp.degraded;

  // Journal lines past the committed epoch are pre-crash appends whose
  // commit never landed; the re-run round will re-append them verbatim.
  ReconcileEpochJournal(epoch_);
  return ReplayDeltaLog(cursor_);
}

Status AdvisorService::ReplayDeltaLog(uint64_t from_line) {
  log_lines_ = 0;
  auto body = ReadWholeFile(delta_log_path());
  if (!body.ok()) return Status::Ok();  // no log yet: nothing to replay
  std::istringstream in(body.value());
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++line_no;
    if (line_no <= from_line) continue;
    auto delta = ParseDelta(line);
    if (!delta.ok()) {
      return Status::Internal("delta log line " + std::to_string(line_no) +
                              " rejected: " + delta.status().message());
    }
    // Accepted-at-submit deltas always re-fit: replay coalesces exactly
    // as the original submissions did, so the rebuilt queue is never
    // larger than the crashed one.
    const Admission admission = queue_.Push(delta.value());
    IDXSEL_CHECK(admission != Admission::kShed);
    ++stats_.replayed_deltas;
  }
  log_lines_ = line_no;
  return Status::Ok();
}

void AdvisorService::ReconcileEpochJournal(uint64_t max_epoch) {
  auto body = ReadWholeFile(epoch_log_path());
  if (!body.ok()) return;
  std::istringstream in(body.value());
  std::string line, kept;
  bool dropped = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    uint64_t epoch = 0;
    const size_t pos = line.find("\"epoch\":");
    if (pos != std::string::npos) {
      epoch = std::strtoull(line.c_str() + pos + 8, nullptr, 10);
    }
    if (pos == std::string::npos || epoch > max_epoch) {
      dropped = true;
      continue;
    }
    kept += line;
    kept += '\n';
  }
  if (!dropped) return;
  const std::string tmp = epoch_log_path() + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return;
  std::fwrite(kept.data(), 1, kept.size(), file);
  std::fflush(file);
#if defined(IDXSEL_SERVE_HAVE_FSYNC)
  ::fsync(::fileno(file));
#endif
  std::fclose(file);
  std::rename(tmp.c_str(), epoch_log_path().c_str());
}

Status AdvisorService::OpenDeltaLog() {
  delta_log_ = std::fopen(delta_log_path().c_str(), "ab");
  if (delta_log_ == nullptr) {
    return Status::Internal("serve: cannot open " + delta_log_path());
  }
  return Status::Ok();
}

Status AdvisorService::AppendDeltaLine(const std::string& line) {
  if (delta_log_ == nullptr) return Status::Ok();  // ephemeral mode
  bool ok = std::fwrite(line.data(), 1, line.size(), delta_log_) ==
                line.size() &&
            std::fputc('\n', delta_log_) != EOF &&
            std::fflush(delta_log_) == 0;
#if defined(IDXSEL_SERVE_HAVE_FSYNC)
  ok = ok && ::fsync(::fileno(delta_log_)) == 0;
#endif
  return ok ? Status::Ok()
            : Status::Internal("serve: delta log append failed");
}

Status AdvisorService::AppendEpochLine(const std::string& line) {
  if (options_.dir.empty()) return Status::Ok();
  std::FILE* file = std::fopen(epoch_log_path().c_str(), "ab");
  if (file == nullptr) {
    return Status::Internal("serve: cannot open " + epoch_log_path());
  }
  bool ok = std::fwrite(line.data(), 1, line.size(), file) == line.size() &&
            std::fflush(file) == 0;
#if defined(IDXSEL_SERVE_HAVE_FSYNC)
  ok = ok && ::fsync(::fileno(file)) == 0;
#endif
  ok = std::fclose(file) == 0 && ok;
  return ok ? Status::Ok()
            : Status::Internal("serve: epoch journal append failed");
}

// ---------------------------------------------------------------------------
// Workload state.
// ---------------------------------------------------------------------------

void AdvisorService::RebuildEngine() {
  auto rebuilt = std::make_unique<workload::Workload>();
  for (const workload::TableSchema& t : base_.tables()) {
    rebuilt->AddTable(t.name, t.row_count);
  }
  for (size_t a = 0; a < base_.num_attributes(); ++a) {
    const workload::AttributeStats& stats =
        base_.attribute(static_cast<workload::AttributeId>(a));
    rebuilt->AddAttribute(stats.table, stats.distinct_values,
                          stats.value_size);
  }
  for (const TemplateEntry& entry : templates_) {
    auto added = rebuilt->AddQuery(entry.table, entry.attrs, entry.frequency,
                                   entry.write ? workload::QueryKind::kWrite
                                               : workload::QueryKind::kRead);
    IDXSEL_CHECK(added.ok());
  }
  rebuilt->Finalize();
  // Teardown order matters: the shard session borrows the engine, the
  // engine borrows the backend, and the backend may borrow the workload
  // it was built for.
  shard_session_.reset();
  engine_.reset();
  backend_.reset();
  workload_ = std::move(rebuilt);
  backend_ = factory_(*workload_);
  IDXSEL_CHECK(backend_ != nullptr);
  engine_ = std::make_unique<costmodel::WhatIfEngine>(workload_.get(),
                                                      backend_.get());
  ++stats_.engine_rebuilds;
}

int64_t AdvisorService::FindTemplate(const WorkloadDelta& delta) const {
  for (size_t i = 0; i < templates_.size(); ++i) {
    if (templates_[i].table == delta.table &&
        templates_[i].attrs == delta.attributes) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

bool AdvisorService::ApplyDelta(const WorkloadDelta& delta,
                                bool* budget_changed) {
  switch (delta.kind) {
    case DeltaKind::kBudgetChange:
      if (delta.budget_fraction > 0.0) budget_fraction_ = delta.budget_fraction;
      budget_bytes_ = delta.budget_bytes;
      *budget_changed = true;
      return false;
    case DeltaKind::kFrequencyShift: {
      const int64_t idx = FindTemplate(delta);
      if (idx < 0) {
        ++stats_.deltas_skipped;
        return false;
      }
      TemplateEntry& entry = templates_[static_cast<size_t>(idx)];
      drift_ += std::abs(delta.frequency - entry.frequency);
      entry.frequency = delta.frequency;
      return false;
    }
    case DeltaKind::kAddTemplate: {
      const int64_t idx = FindTemplate(delta);
      if (idx >= 0) {
        // Re-adding an existing template is a frequency shift — this is
        // what makes delta-log replay idempotent across recoveries. A
        // changed read/write kind, however, alters maintenance structure
        // and is treated as structural (engine rebuild).
        TemplateEntry& entry = templates_[static_cast<size_t>(idx)];
        drift_ += std::abs(delta.frequency - entry.frequency);
        entry.frequency = delta.frequency;
        const bool kind_changed = entry.write != delta.write;
        entry.write = delta.write;
        return kind_changed;
      }
      templates_.push_back(TemplateEntry{delta.table, delta.attributes,
                                         delta.frequency, delta.write});
      drift_ += delta.frequency;
      return true;
    }
    case DeltaKind::kRemoveTemplate: {
      const int64_t idx = FindTemplate(delta);
      if (idx < 0) {
        ++stats_.deltas_skipped;
        return false;
      }
      drift_ += templates_[static_cast<size_t>(idx)].frequency;
      templates_.erase(templates_.begin() + idx);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Ingestion.
// ---------------------------------------------------------------------------

Status AdvisorService::Submit(const WorkloadDelta& delta) {
  if (state_ == ServiceState::kStopped) {
    return Status::Internal("serve: Submit after Stop");
  }
  const Admission admission = queue_.Push(delta);
  switch (admission) {
    case Admission::kShed:
      ++stats_.deltas_shed;
      Add(Slot::kServeDeltasShed);
      shed_since_commit_ = true;
      return Status::ResourceLimit(
          "serve: delta queue full (" + std::to_string(queue_.capacity()) +
          "); serving last commitment");
    case Admission::kCoalesced:
      ++stats_.deltas_coalesced;
      Add(Slot::kServeDeltasCoalesced);
      break;
    case Admission::kAccepted:
      ++stats_.deltas_accepted;
      Add(Slot::kServeDeltasAccepted);
      break;
  }
  // Write-ahead: the line is durable before Submit returns, so a crash
  // at any later point replays it. Coalesced deltas are logged too —
  // replay re-coalesces them identically.
  const Status logged = AppendDeltaLine(FormatDelta(delta));
  if (!logged.ok()) return logged;
  ++log_lines_;
  Hook("submit-journaled");
  return Status::Ok();
}

void AdvisorService::EnsureShardSession(const advisor::AdvisorOptions& opts) {
  const size_t shards = advisor::ResolveShardCount(opts, *workload_);
  if (shards == 0) {
    shard_session_.reset();
    return;
  }
  if (shard_session_ != nullptr && shard_session_->shards() == shards) return;
  shard::ShardedOptions sharded;
  sharded.shards = shards;
  sharded.max_steps = opts.recursive.max_steps;
  sharded.min_ratio = opts.recursive.min_ratio;
  sharded.max_index_width = opts.recursive.max_index_width;
  sharded.compression = opts.shard_compression;
  shard_session_ =
      std::make_unique<shard::ShardedSelector>(*engine_, sharded);
}

// ---------------------------------------------------------------------------
// The pump.
// ---------------------------------------------------------------------------

Result<advisor::Recommendation> AdvisorService::RunRound(
    bool* failed, uint64_t* sanitized_delta) {
  Hook("round-start");
  ++stats_.rounds_attempted;
  cancel_.Reset();

  advisor::AdvisorOptions opts = options_.advisor;
  opts.budget_fraction = budget_fraction_;
  opts.budget_bytes = budget_bytes_;
  opts.cancellation = &cancel_;
  opts.time_limit_seconds = options_.round_time_limit_seconds;
  EnsureShardSession(opts);
  opts.shard_session = shard_session_.get();

  const uint64_t sanitized_before = engine_->stats().sanitized;
  std::unique_ptr<Watchdog> watchdog;
  if (options_.round_time_limit_seconds !=
      std::numeric_limits<double>::infinity()) {
    watchdog = std::make_unique<Watchdog>(options_.round_time_limit_seconds,
                                          &cancel_);
  }
  auto result = advisor::Recommend(*engine_, opts);
  bool watchdog_fired = false;
  if (watchdog != nullptr) {
    watchdog_fired = watchdog->Disarm();
    if (watchdog_fired) {
      ++stats_.watchdog_cancels;
      Add(Slot::kServeWatchdogCancels);
    }
  }
  *sanitized_delta = engine_->stats().sanitized - sanitized_before;
  *failed = !result.ok() || *sanitized_delta > 0 || watchdog_fired;
  return result;
}

Result<PumpOutcome> AdvisorService::Pump() {
  if (state_ == ServiceState::kStopped) {
    return Status::Internal("serve: Pump after Stop");
  }
  Hook("pump-start");
  PumpOutcome outcome;
  outcome.epoch = epoch_;

  // 1. Fold pending deltas into the active workload.
  const std::vector<WorkloadDelta> drained = queue_.Drain();
  bool structural = false;
  std::vector<std::pair<workload::QueryId, double>> shifts;
  for (const WorkloadDelta& delta : drained) {
    bool budget_delta = false;
    const bool structural_delta = ApplyDelta(delta, &budget_delta);
    structural = structural || structural_delta;
    pending_budget_ = pending_budget_ || budget_delta;
    if (structural_delta || budget_delta) continue;
    // Anything non-structural that touched a known template is a
    // frequency shift (including re-adds of existing templates); the
    // queue coalesces per template key, so each index appears once.
    const int64_t idx = FindTemplate(delta);
    if (idx >= 0) {
      shifts.emplace_back(static_cast<workload::QueryId>(idx),
                          templates_[static_cast<size_t>(idx)].frequency);
      pending_shift_ = true;
    }
  }
  outcome.deltas_applied = drained.size();
  if (structural) {
    // Template set changed: query ids shift, so the engine (and its
    // warm tables) must be rebuilt against the new workload.
    RebuildEngine();
  } else if (!shifts.empty()) {
    // Frequencies only: update in place. Per-execution costs stay warm
    // in both the hashed caches and the dense kernel tables; only the
    // frequency-weighted maintenance state is dropped.
    for (const auto& [j, freq] : shifts) {
      const Status updated = workload_->UpdateQueryFrequency(j, freq);
      IDXSEL_CHECK(updated.ok());
    }
    engine_->InvalidateFrequencyDependentCaches();
    // The incremental promise of the sharded path: only the shards owning
    // shifted tables are rebuilt on the next round; the rest keep their
    // warm engines.
    if (shard_session_ != nullptr) {
      for (const auto& [j, freq] : shifts) {
        shard_session_->MarkDirty(templates_[static_cast<size_t>(j)].table);
      }
    }
  }
  pending_structural_ = pending_structural_ || structural;

  // Captured after any rebuild: a fresh engine's counters restart at 0.
  const uint64_t calls_before = engine_->stats().calls;

  // 2. Drift gate.
  const double threshold =
      options_.drift_threshold * workload_->total_frequency();
  const bool need_round = pending_structural_ || pending_budget_ ||
                          epoch_ == 0 ||
                          (pending_shift_ && drift_ >= threshold);
  if (!need_round) {
    if (log_lines_ > cursor_) {
      const Status absorbed = CommitAbsorb();
      if (!absorbed.ok()) return absorbed;
      outcome.note = "absorbed";
    } else {
      outcome.note = "idle";
    }
    outcome.degraded = committed_degraded_ || shed_since_commit_;
    outcome.whatif_calls = engine_->stats().calls - calls_before;
    return outcome;
  }

  // 3. Breaker gate: while open, serve the last commitment.
  if (breaker_.state() == BreakerState::kOpen) {
    if (!breaker_.Tick()) {
      state_ = ServiceState::kDegraded;
      outcome.degraded = true;
      outcome.note = "breaker-open";
      return outcome;
    }
  }
  if (breaker_.state() == BreakerState::kHalfOpen) {
    // Probe the *raw* backend — one base-cost call, no cache pollution.
    const double probe = backend_->BaseCost(0);
    const bool healthy = probe == probe && probe >= 0.0 &&
                         probe != std::numeric_limits<double>::infinity();
    if (!healthy) {
      breaker_.RecordFailure();
      ++stats_.breaker_trips;
      Add(Slot::kServeBreakerTrips);
      state_ = ServiceState::kDegraded;
      outcome.degraded = true;
      outcome.note = "probe-failed";
      return outcome;
    }
    breaker_.RecordSuccess();
    ++stats_.breaker_closes;
    Add(Slot::kServeBreakerCloses);
    // Self-heal: rounds that failed while the backend was sick cached
    // sanitized fallbacks; flush them (and forgive the engine's sticky
    // health verdict) so the next round sees — and reports — truth.
    engine_->InvalidateCostCache();
    engine_->ResetHealth();
    ++stats_.cache_flushes;
    Add(Slot::kServeCacheFlushes);
  }

  // 4. Selection round with retry + backoff.
  const char* trigger = pending_structural_ ? "structural"
                        : pending_budget_   ? "budget"
                        : epoch_ == 0       ? "initial"
                                            : "drift";
  backoff_.Reset();
  for (size_t attempt = 1; attempt <= options_.max_round_attempts; ++attempt) {
    outcome.ran_round = true;
    outcome.attempts = attempt;
    bool failed = false;
    uint64_t sanitized_delta = 0;
    auto result = RunRound(&failed, &sanitized_delta);
    if (!failed) {
      breaker_.RecordSuccess();
      const Status committed = Commit(std::move(result).value(), trigger);
      if (!committed.ok()) return committed;
      outcome.committed = true;
      outcome.epoch = epoch_;
      outcome.degraded = committed_degraded_;
      outcome.note = trigger;
      outcome.whatif_calls = engine_->stats().calls - calls_before;
      state_ = ServiceState::kIdle;
      return outcome;
    }

    // Failed round: sanitized fallbacks may be cached — flush before any
    // retry so the next attempt re-consults the backend for truth, and
    // clear health so a clean retry commits undegraded.
    engine_->InvalidateCostCache();
    engine_->ResetHealth();
    ++stats_.cache_flushes;
    Add(Slot::kServeCacheFlushes);
    const bool tripped = breaker_.RecordFailure();
    if (tripped) {
      ++stats_.breaker_trips;
      Add(Slot::kServeBreakerTrips);
      break;
    }
    if (attempt < options_.max_round_attempts) {
      ++stats_.retries;
      Add(Slot::kServeRetries);
      SleepFor(backoff_.NextDelaySeconds());
    }
  }

  // Round given up: drained deltas stay folded into the in-memory state
  // (drift_ and the pending flags keep the next pump retrying) and stay
  // uncommitted in the log (cursor unchanged), so a crash right now
  // recovers to exactly this retry point.
  state_ = ServiceState::kDegraded;
  last_round_failed_ = true;
  outcome.degraded = true;
  outcome.note = "round-failed";
  outcome.whatif_calls = engine_->stats().calls - calls_before;
  return outcome;
}

// ---------------------------------------------------------------------------
// Commit protocol.
// ---------------------------------------------------------------------------

Checkpoint AdvisorService::BuildCheckpoint(bool degraded) const {
  Checkpoint cp;
  cp.epoch = epoch_;
  cp.cursor = cursor_;
  cp.budget_fraction = budget_fraction_;
  cp.budget_bytes = budget_bytes_;
  cp.drift = drift_;
  cp.degraded = degraded;
  cp.cost_before = committed_rec_.cost_before;
  cp.cost_after = committed_rec_.cost_after;
  cp.memory = committed_rec_.memory;
  cp.selection = committed_rec_.selection;
  cp.plan = committed_plan_;
  auto text = workload::FormatWorkload(*workload_, names_);
  IDXSEL_CHECK(text.ok());
  cp.workload_text = std::move(text).value();
  return cp;
}

std::string AdvisorService::EpochJournalLine(
    const advisor::Recommendation& rec, const DeploymentPlan& plan,
    const char* trigger, uint64_t deltas_folded) const {
  // Deterministic fields only: no call counts, no timings, no retry
  // counts — the byte-identity guarantee of the chaos soak rides on it.
  std::string out = "{\"schema\":\"idxsel.serve.epoch.v1\"";
  out += ",\"strategy\":\"serve\",\"action\":\"epoch\"";
  out += ",\"epoch\":" + std::to_string(epoch_);
  out += ",\"round\":" + std::to_string(epoch_);
  out += ",\"trigger\":\"" + std::string(trigger) + "\"";
  out += ",\"cursor\":" + std::to_string(cursor_);
  out += ",\"deltas\":" + std::to_string(deltas_folded);
  out += ",\"winner\":\"" +
         std::string(advisor::StrategyKey(rec.executed_strategy)) + "\"";
  out += ",\"objective_before\":" + FormatExactDouble(rec.cost_before);
  out += ",\"objective_after\":" + FormatExactDouble(rec.cost_after);
  out += ",\"memory_after\":" + FormatExactDouble(rec.memory);
  out += ",\"budget\":" + FormatExactDouble(rec.budget);
  out += ",\"degraded\":" + std::string(rec.degraded ? "true" : "false");
  out += ",\"plan\":[";
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    if (i != 0) out += ',';
    out += "{\"op\":\"";
    out += step.create ? "create" : "drop";
    out += "\",\"index\":\"" + step.index.ToString() + "\"";
    out += ",\"memory_after\":" + FormatExactDouble(step.memory_after) + "}";
  }
  out += "]}\n";
  return out;
}

Status AdvisorService::Commit(advisor::Recommendation rec,
                              const char* trigger) {
  Hook("pre-commit");
  const uint64_t cursor_new = log_lines_;
  const uint64_t deltas_folded = cursor_new - cursor_;
  DeploymentPlan plan = BuildDeploymentPlan(*engine_, committed_rec_.selection,
                                            rec.selection, rec.budget);

  // Stage the post-commit state, then persist it: journal line first,
  // checkpoint rename last (the commit point). A crash in between leaves
  // an extra journal line that ReconcileEpochJournal truncates on
  // recovery before the re-run round re-appends it byte-identically.
  const uint64_t epoch_prev = epoch_;
  const uint64_t cursor_prev = cursor_;
  auto rec_prev = committed_rec_;
  auto plan_prev = committed_plan_;
  epoch_ += 1;
  cursor_ = cursor_new;
  committed_rec_ = std::move(rec);
  // Staged before BuildCheckpoint below: the checkpoint must carry THIS
  // epoch's plan, not the previous one's.
  committed_plan_ = std::move(plan);
  const double drift_prev = drift_;
  drift_ = 0.0;

  if (!options_.dir.empty()) {
    const Checkpoint cp = BuildCheckpoint(committed_rec_.degraded);
    const std::string body = SerializeCheckpoint(cp);
    const std::string path = checkpoint_path();
    const std::string tmp = path + ".tmp";
    auto undo = [&] {
      epoch_ = epoch_prev;
      cursor_ = cursor_prev;
      committed_rec_ = std::move(rec_prev);
      committed_plan_ = std::move(plan_prev);
      drift_ = drift_prev;
    };
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
      undo();
      return Status::Internal("serve: cannot open " + tmp);
    }
    bool ok = std::fwrite(body.data(), 1, body.size(), file) == body.size() &&
              std::fflush(file) == 0;
#if defined(IDXSEL_SERVE_HAVE_FSYNC)
    ok = ok && ::fsync(::fileno(file)) == 0;
#endif
    ok = std::fclose(file) == 0 && ok;
    if (!ok) {
      std::remove(tmp.c_str());
      undo();
      return Status::Internal("serve: checkpoint write failed");
    }
    Hook("checkpoint-temp-written");
    const Status journaled = AppendEpochLine(
        EpochJournalLine(committed_rec_, committed_plan_, trigger,
                         deltas_folded));
    if (!journaled.ok()) {
      std::remove(tmp.c_str());
      undo();
      return journaled;
    }
    Hook("journal-appended");
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      undo();
      return Status::Internal("serve: checkpoint rename failed");
    }
    ++stats_.checkpoints_written;
    Add(Slot::kServeCheckpoints);
  }
  Hook("committed");

  committed_degraded_ = committed_rec_.degraded;
  pending_structural_ = false;
  pending_budget_ = false;
  pending_shift_ = false;
  shed_since_commit_ = false;
  last_round_failed_ = false;
  ++stats_.epochs;
  Add(Slot::kServeEpochs);

  // Mirror the transition onto the in-memory selection journal (the obs
  // bridge) for run reports and idxsel_report rendering.
  if (telemetry::JournalActive()) {
    telemetry::JournalEvent event;
    event.strategy = "serve";
    event.action = "epoch";
    event.round = epoch_;
    event.winner = advisor::StrategyKey(committed_rec_.executed_strategy);
    event.objective_before = committed_rec_.cost_before;
    event.objective_after = committed_rec_.cost_after;
    event.memory_after = committed_rec_.memory;
    event.note = trigger;
    telemetry::EmitJournal(event);
  }
  return Status::Ok();
}

Status AdvisorService::CommitAbsorb() {
  // Below-threshold deltas: make the cursor (and the shifted workload)
  // durable without a re-selection, so replay never grows unboundedly.
  const uint64_t cursor_prev = cursor_;
  cursor_ = log_lines_;
  if (!options_.dir.empty()) {
    const Status saved =
        SaveCheckpoint(checkpoint_path(), BuildCheckpoint(committed_degraded_));
    if (!saved.ok()) {
      cursor_ = cursor_prev;
      return saved;
    }
    ++stats_.checkpoints_written;
    Add(Slot::kServeCheckpoints);
  }
  ++stats_.absorb_commits;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------------

ServiceAnswer AdvisorService::Answer() const {
  ServiceAnswer answer;
  answer.epoch = epoch_;
  answer.recommendation = committed_rec_;
  answer.plan = committed_plan_;
  answer.degraded = epoch_ == 0 || committed_degraded_ ||
                    shed_since_commit_ || last_round_failed_ ||
                    breaker_.state() != BreakerState::kClosed;
  return answer;
}

Status AdvisorService::Stop() {
  if (state_ == ServiceState::kStopped) return Status::Ok();
  if (delta_log_ != nullptr) {
    std::fclose(delta_log_);
    delta_log_ = nullptr;
  }
  state_ = ServiceState::kStopped;
  return Status::Ok();
}

}  // namespace idxsel::serve
