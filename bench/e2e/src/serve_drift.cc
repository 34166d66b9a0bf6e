// serve-drift: one process hosts an AdvisorService per tenant database,
// each on its own on-disk state directory, and takes a drifting workload as
// an open-loop delta stream, then survives kill and restart cycles. One
// thread Submits each delta at its due time (or as soon as the previous
// commit returns, when behind) and Pumps its tenant right after, so every
// delta gets its own commit whatever the clock does: what the services
// compute repeats exactly, only when they compute it varies. A delta's
// latency runs from its due time to the end of the Pump that commits it,
// so a slow round shows as queueing for the deltas behind it. The flush
// policy is the service's own: WAL fsync per Submit, checkpoint temp file +
// fsync + rename per commit.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "costmodel/cost_model.h"
#include "serve/service.h"
#include "workload/scalable_generator.h"
#include "workloads.h"

namespace idxsel::e2e {
namespace {

/// Thrown from the commit-protocol hook to kill the service mid-commit,
/// as the serve layer's chaos soak does.
struct SimulatedKill {};

/// Deterministic delta stream over a base workload: per 20 deltas, 18
/// frequency shifts, one template add and one budget change, at fixed
/// positions so every seed has the same mix. The seed picks templates,
/// frequencies, new attribute sets and nothing else. Budget changes
/// alternate between shares of 0.4 and 0.3: above about 0.25 every query of
/// these workloads gets its best index, and below it F(selection) swings by
/// 2x between seeds, which no run length averages out.
class DeltaSource {
 public:
  DeltaSource(const workload::Workload& base, uint64_t seed)
      : base_(base), rng_(seed) {
    for (const workload::Query& q : base.queries()) {
      templates_.emplace_back(q.table, q.attributes);
      keys_.insert(templates_.back());
    }
  }

  serve::WorkloadDelta Next() {
    serve::WorkloadDelta d;
    const size_t slot = next_++ % 20;
    if (slot == 19) {
      d.kind = serve::DeltaKind::kBudgetChange;
      d.budget_fraction = budget_changes_++ % 2 == 0 ? 0.4 : 0.3;
      return d;
    }
    d.frequency = static_cast<double>(rng_.RoundUniform(1.0, 10'000.0));
    if (slot == 9) {
      d.kind = serve::DeltaKind::kAddTemplate;
      Template t = NewTemplate();
      d.table = t.first;
      d.attributes = t.second;
      templates_.push_back(t);
      keys_.insert(std::move(t));
      return d;
    }
    d.kind = serve::DeltaKind::kFrequencyShift;
    const Template& t = templates_[static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(templates_.size()) - 1))];
    d.table = t.first;
    d.attributes = t.second;
    return d;
  }

 private:
  using Template =
      std::pair<workload::TableId, std::vector<workload::AttributeId>>;

  /// A read template on a random table that does not exist yet, with the
  /// generator's skew towards high attribute ordinals (Appendix C).
  Template NewTemplate() {
    for (;;) {
      const auto table = static_cast<workload::TableId>(rng_.UniformInt(
          0, static_cast<int64_t>(base_.num_tables()) - 1));
      const std::vector<workload::AttributeId>& attrs =
          base_.table(table).attributes;
      const double n = static_cast<double>(attrs.size());
      const int64_t z = std::max<int64_t>(1, rng_.RoundUniform(0.5, 5.5));
      std::vector<workload::AttributeId> picked;
      for (int64_t k = 0; k < z; ++k) {
        const double draw = rng_.Uniform(1.0, std::pow(n, 1.0 / 0.3));
        const int64_t ordinal = std::clamp<int64_t>(
            std::llround(std::pow(draw, 0.3)), 1,
            static_cast<int64_t>(attrs.size()));
        picked.push_back(attrs[static_cast<size_t>(ordinal - 1)]);
      }
      std::sort(picked.begin(), picked.end());
      picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
      Template t{table, std::move(picked)};
      if (keys_.count(t) == 0) return t;
    }
  }

  const workload::Workload& base_;
  Rng rng_;
  size_t next_ = 0;
  size_t budget_changes_ = 0;
  std::vector<Template> templates_;
  std::set<Template> keys_;
};

struct Shape {
  size_t tenants;
  uint32_t tables;
  uint32_t attributes_per_table;
  uint32_t queries_per_table;
  uint64_t rows_cap;
  double write_share;
  double budget_fraction;  ///< until the first budget change
  double rate;             ///< deltas per second, all tenants together
  size_t restarts;
};

/// One tenant database: its base workload, its delta stream, its service.
struct Tenant {
  std::string dir;
  workload::NamedWorkload base;
  std::vector<serve::WorkloadDelta> stream;
  size_t next = 0;  ///< stream position of the next Submit
  std::unique_ptr<serve::AdvisorService> service;
  size_t pumps = 0;
  serve::ServeStats stats_before;
};

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

}  // namespace

void RunServeDrift(const Options& options, RunResult* result, SpanLog* spans) {
  // Eight tenants of 200 templates each, with a 20% write share so
  // maintenance costs and the add-template rebuilds are part of every
  // round. Each base spreads its templates over 8 equal tables of 1M rows,
  // so a run averages over 64 comparable tables: with one base of the
  // paper's t * 1M rows the largest table alone decided the run's numbers.
  // Rounds take about 10 ms, so 25 deltas/s keep the services a quarter busy.
  Shape shape{8, 8, 25, 25, 1'000'000, 0.2, 0.3, 25.0, 20};
  if (options.smoke) {
    shape = Shape{2, 2, 10, 10, 1'000'000, 0.2, 0.3, 25.0, 2};
  }
  const size_t deltas =
      static_cast<size_t>(std::ceil(shape.rate * options.seconds));
  const size_t per_tenant = (deltas + shape.restarts) / shape.tenants + 2;
  result->Param("tenants", static_cast<double>(shape.tenants));
  result->Param("tables", shape.tables);
  result->Param("attributes_per_table", shape.attributes_per_table);
  result->Param("queries_per_table", shape.queries_per_table);
  result->Param("rows_cap", static_cast<double>(shape.rows_cap));
  result->Param("write_share", shape.write_share);
  result->Param("budget_fraction", shape.budget_fraction);
  result->Param("rate_per_s", shape.rate);
  result->Param("deltas", static_cast<double>(deltas));
  result->Param("restarts", static_cast<double>(shape.restarts));

  const std::string root = options.out_dir + "/serve-drift.state";
  BackendTally tally;
  tally.active = false;  // set per pump in the open loop; setup not counted
  HookRecorder recorder;
  bool armed = false;  // the kill switch of the restart phase

  // Untraced runs use the plain model backend and no hooks; traced runs
  // time every backend call and every commit-protocol point.
  serve::BackendFactory factory = serve::MakeModelBackendFactory();
  if (spans->enabled()) {
    factory = [&tally, inner = factory](const workload::Workload& w)
        -> std::unique_ptr<costmodel::WhatIfBackend> {
      return std::make_unique<TimingBackend>(inner(w), &tally);
    };
  }
  serve::ServiceOptions service_options;
  service_options.advisor.threads = 1;
  service_options.advisor.budget_fraction = shape.budget_fraction;
  if (spans->enabled()) service_options.hooks.at = recorder.Hook();
  serve::ServiceOptions kill_options = service_options;
  kill_options.hooks.at = [&, record = service_options.hooks.at](
                              const char* point) {
    if (record) record(point);
    if (armed && std::strcmp(point, "journal-appended") == 0) {
      throw SimulatedKill{};
    }
  };
  const auto start_service = [&](const Tenant& t,
                                 const serve::ServiceOptions& base_options) {
    serve::ServiceOptions o = base_options;
    o.dir = t.dir;
    return serve::AdvisorService::Start(t.base, factory, o);
  };

  std::vector<Tenant> tenants(shape.tenants);
  result->Set("setup_s", TimeSetup([&] {
    std::filesystem::remove_all(root);
    for (size_t k = 0; k < tenants.size(); ++k) {
      Tenant& t = tenants[k];
      t.service.reset();
      t.dir = root + "/tenant-" + std::to_string(k);
      std::filesystem::create_directories(t.dir);
      workload::ScalableWorkloadParams params;
      params.num_tables = shape.tables;
      params.attributes_per_table = shape.attributes_per_table;
      params.queries_per_table = shape.queries_per_table;
      params.rows_per_table_cap = shape.rows_cap;
      params.write_share = shape.write_share;
      params.seed = options.seed * 1000 + k;
      t.base = NameWorkload(workload::GenerateScalableWorkload(params));
      DeltaSource source(t.base.workload, options.seed * 1000 + 500 + k);
      t.stream.clear();
      for (size_t i = 0; i < per_tenant; ++i) t.stream.push_back(source.Next());
      auto started = start_service(t, service_options);
      result->Check(started.ok(), "cold Start failed");
      if (!started.ok()) continue;
      t.service = std::move(started).value();
      auto first = t.service->Pump();
      result->Check(first.ok() && first->committed,
                    "initial Pump did not commit");
    }
  }));
  for (const Tenant& t : tenants) {
    if (t.service == nullptr) return;
  }

  // ---- Open loop ----------------------------------------------------------
  std::vector<double> latency, lag, submit_s, pump_s, traced_pump, plain_pump;
  std::vector<double> calls, plan_steps;
  double steps = 0.0;
  int64_t backlog_max = 0;
  for (Tenant& t : tenants) t.stats_before = t.service->stats();
  const Counters counters_before = SnapshotCounters();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / shape.rate));
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < deltas; ++i) {
    const Clock::time_point due = t0 + period * static_cast<int64_t>(i);
    // Spin rather than sleep until the delta is due: after a sleep the
    // next round ran 15-25% slower, by an amount that followed the host's
    // load rather than the code.
    while (Clock::now() < due) {
    }
    Tenant& t = tenants[i % tenants.size()];
    // Traced runs alternate each tenant's pumps between traced and plain,
    // to measure the overhead on like rounds.
    const bool traced_op = spans->enabled() && t.pumps++ % 2 == 1;
    spans->set_active(traced_op);
    spans->set_op(i);
    recorder.set_active(traced_op);
    tally.active = traced_op;

    serve::AdvisorService& service = *t.service;
    const Clock::time_point s0 = Clock::now();
    const Status submitted = service.Submit(t.stream[t.next++]);
    const Clock::time_point p0 = Clock::now();
    auto outcome = service.Pump();
    const Clock::time_point p1 = Clock::now();
    spans->Add("serve.Submit", "serve", s0, p0);
    spans->Add("serve.Pump", "serve", p0, p1);
    recorder.EndPump(spans);
    lag.push_back(SecondsBetween(due, s0));
    // Deltas due by now and not yet committed, this one included.
    backlog_max = std::max<int64_t>(
        backlog_max, (s0 - t0) / period - static_cast<int64_t>(i) + 1);
    submit_s.push_back(SecondsBetween(s0, p0));
    pump_s.push_back(SecondsBetween(p0, p1));
    (traced_op ? traced_pump : plain_pump).push_back(pump_s.back());
    latency.push_back(SecondsBetween(due, p1));

    const serve::ServiceAnswer answer = service.Answer();
    std::string failure;
    if (!submitted.ok()) {
      failure = "Submit failed: " + submitted.ToString();
    } else if (!outcome.ok()) {
      failure = "Pump failed: " + outcome.status().ToString();
    } else if (!outcome->committed || outcome->degraded) {
      failure = std::string("Pump did not commit cleanly: ") + outcome->note;
    } else if (answer.degraded || answer.epoch != outcome->epoch) {
      failure = "answer degraded or stale after a commit";
    } else if (!serve::ValidatePlanPrefixes(answer.plan).ok()) {
      failure = "committed plan violates the prefix budget";
    }
    result->Op(failure.empty(), failure);
    if (!failure.empty()) continue;
    calls.push_back(static_cast<double>(outcome->whatif_calls));
    steps += static_cast<double>(answer.recommendation.trace.size());
    plan_steps.push_back(static_cast<double>(answer.plan.steps.size()));
  }
  const Counters counters_after = SnapshotCounters();

  // Every tenant's final answer, recomputed on a fresh engine over a fresh
  // backend.
  serve::ServeStats totals;
  std::vector<double> ratios;
  double checkpoint_bytes = 0.0;
  double wal_bytes = 0.0;
  for (const Tenant& t : tenants) {
    const serve::ServeStats& s = t.service->stats();
    result->Check(s.deltas_shed == 0 && s.deltas_skipped == 0,
                  "deltas were shed or skipped");
    totals.epochs += s.epochs - t.stats_before.epochs;
    totals.deltas_coalesced +=
        s.deltas_coalesced - t.stats_before.deltas_coalesced;
    totals.deltas_shed += s.deltas_shed;
    totals.engine_rebuilds +=
        s.engine_rebuilds - t.stats_before.engine_rebuilds;
    checkpoint_bytes += FileBytes(t.service->checkpoint_path());
    wal_bytes += FileBytes(t.service->delta_log_path());

    const advisor::Recommendation& rec = t.service->Answer().recommendation;
    const workload::Workload& w = t.service->workload();
    costmodel::CostModel model(&w);
    costmodel::ModelBackend backend(&model);
    costmodel::WhatIfEngine fresh(&w, &backend);
    const double before = fresh.WorkloadCost(costmodel::IndexConfig{});
    const double after = fresh.WorkloadCost(rec.selection);
    const bool same = RelativelyEqual(before, rec.cost_before, 1e-9) &&
                      RelativelyEqual(after, rec.cost_after, 1e-9);
    result->Check(same, "final answer's cost differs on a fresh engine");
    if (same) ratios.push_back(after / before);
  }

  // ---- Kill / restart cycles ---------------------------------------------
  // Every incarnation from here on carries the kill hook; it fires only
  // while armed, so Start and the verifying Pump run undisturbed.
  spans->set_active(spans->enabled());
  recorder.set_active(false);
  tally.active = false;
  for (Tenant& t : tenants) {
    t.service.reset();
    auto restarted = start_service(t, kill_options);
    result->Check(restarted.ok(), "restart after the open loop failed");
    if (!restarted.ok()) return;
    t.service = std::move(restarted).value();
  }
  std::vector<double> recover_s, replayed;
  for (size_t cycle = 0; cycle < shape.restarts; ++cycle) {
    Tenant& t = tenants[cycle % tenants.size()];
    const serve::ServiceAnswer before = t.service->Answer();
    result->Check(t.service->Submit(t.stream[t.next++]).ok(),
                  "Submit before a kill failed");
    bool killed = false;
    armed = true;
    try {
      (void)t.service->Pump();
    } catch (const SimulatedKill&) {
      killed = true;
    }
    armed = false;
    t.service.reset();

    const Clock::time_point r0 = Clock::now();
    auto restarted = start_service(t, kill_options);
    const Clock::time_point r1 = Clock::now();
    spans->set_op(cycle);
    spans->Add("serve.Start(recover)", "serve", r0, r1);
    if (!restarted.ok()) {
      result->Op(false, "recovery Start failed");
      return;
    }
    t.service = std::move(restarted).value();
    recover_s.push_back(SecondsBetween(r0, r1));
    replayed.push_back(static_cast<double>(t.service->stats().replayed_deltas));
    const serve::ServiceAnswer after = t.service->Answer();
    auto refold = t.service->Pump();
    std::string failure;
    if (!killed) {
      failure = "the kill hook never fired";
    } else if (t.service->stats().recoveries != 1) {
      failure = "restart did not recover from the checkpoint";
    } else if (after.epoch != before.epoch ||
               !(after.recommendation.selection ==
                 before.recommendation.selection)) {
      failure = "restart lost the pre-kill epoch or selection";
    } else if (!refold.ok() || !refold->committed || refold->degraded) {
      failure = "Pump after recovery did not commit cleanly";
    }
    result->Op(failure.empty(), failure);
  }
  for (Tenant& t : tenants) {
    (void)t.service->Stop();
    t.service.reset();
  }
  std::filesystem::remove_all(root);

  // ---- Metrics ------------------------------------------------------------
  double busy = 0.0;
  for (double s : submit_s) busy += s;
  for (double s : pump_s) busy += s;
  const auto pumps = static_cast<double>(pump_s.size());
  const auto count = static_cast<double>(tenants.size());
  result->Set("latency_p50_ms", Median(latency) * 1e3);
  result->Set("ops_per_s", static_cast<double>(latency.size()) / busy);
  result->Set("cost_ratio", GeometricMean(ratios));
  result->Set("whatif_calls", Mean(calls));

  const double traced_pumps = static_cast<double>(traced_pump.size());
  const double round_s = Mean(recorder.Interval("round"));
  const double backend_s =
      traced_pumps > 0 ? tally.seconds() / traced_pumps : 0.0;
  result->Set("advisor.recommend_s", round_s);
  result->Set("costmodel.backend_s", backend_s);
  result->Set("costmodel.backend_calls",
              traced_pumps > 0
                  ? static_cast<double>(tally.calls.load()) / traced_pumps
                  : 0.0);
  result->Set("core.self_s", round_s - backend_s);
  ReportCounterLayers(counters_before, counters_after, pumps, steps, result);
  result->Set("serve.submit_ms", Median(submit_s) * 1e3);
  for (const char* interval :
       {"apply", "round", "checkpoint", "journal", "publish"}) {
    result->Set(std::string("serve.") + interval + "_ms",
                Median(recorder.Interval(interval)) * 1e3);
  }
  result->Set("serve.pumps", pumps);
  result->Set("serve.epochs", static_cast<double>(totals.epochs));
  result->Set("serve.deltas_coalesced",
              static_cast<double>(totals.deltas_coalesced));
  result->Set("serve.deltas_shed", static_cast<double>(totals.deltas_shed));
  result->Set("serve.engine_rebuilds",
              static_cast<double>(totals.engine_rebuilds));
  result->Set("serve.pump_whatif_calls", Mean(calls));
  result->Set("serve.queue_depth_max", static_cast<double>(backlog_max));
  result->Set("serve.checkpoint_bytes", checkpoint_bytes / count);
  result->Set("serve.wal_bytes", wal_bytes / count);
  result->Set("serve.recover_ms", Median(recover_s) * 1e3);
  result->Set("serve.recover_replayed", Mean(replayed));
  result->Set("serve.plan_steps", Mean(plan_steps));
  result->Set("harness.latency_p90_ms", Quantile(latency, 0.9) * 1e3);
  result->Set("harness.lag_p99_ms", Quantile(lag, 0.99) * 1e3);
  result->Set("harness.ops", static_cast<double>(latency.size()));
  if (!traced_pump.empty() && !plain_pump.empty()) {
    result->Set("harness.trace_overhead",
                Median(traced_pump) / Median(plain_pump));
  }
}

}  // namespace idxsel::e2e
