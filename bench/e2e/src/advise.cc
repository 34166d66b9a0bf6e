// advise-paper and advise-wide: closed loop, one client. Each request is
// workload-file text in, validated deployment plan out:
// ParseWorkload -> Recommend (H6, advisor defaults, one thread) ->
// BuildDeploymentPlan from the empty configuration -> ValidatePlanPrefixes.

#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "workload/parser.h"
#include "workload/scalable_generator.h"
#include "workloads.h"

namespace idxsel::e2e {

Advice Advise(const workload::Workload& w, double budget_fraction,
              bool traced, SpanLog* spans) {
  Advice out;
  costmodel::CostModel model(&w);
  costmodel::ModelBackend plain(&model);
  BackendTally tally;
  TimingBackend timed(&plain, &tally);
  costmodel::WhatIfEngine engine(
      &w, traced ? static_cast<costmodel::WhatIfBackend*>(&timed) : &plain);
  advisor::AdvisorOptions options;
  options.budget_fraction = budget_fraction;
  options.threads = 1;

  const Clock::time_point start = Clock::now();
  auto rec = advisor::Recommend(engine, options);
  const Clock::time_point recommended = Clock::now();
  spans->Add("advisor.Recommend", "advisor", start, recommended);
  out.recommend_seconds = SecondsBetween(start, recommended);
  out.recommend_backend_seconds = tally.seconds();
  if (!rec.ok()) {
    out.status = rec.status();
    return out;
  }
  out.rec = std::move(rec).value();

  out.plan = serve::BuildDeploymentPlan(engine, costmodel::IndexConfig{},
                                        out.rec.selection, out.rec.budget);
  const Clock::time_point planned = Clock::now();
  spans->Add("serve.BuildDeploymentPlan", "serve", recommended, planned);
  out.status = serve::ValidatePlanPrefixes(out.plan);
  spans->Add("serve.ValidatePlanPrefixes", "serve", planned, Clock::now());

  out.whatif_calls = engine.stats().calls;
  out.backend_seconds = tally.seconds();
  out.backend_calls = tally.calls.load();
  return out;
}

std::string CheckAdvice(const workload::Workload& w, const Advice& advice,
                        double* ratio) {
  if (!advice.status.ok()) return "advice failed: " + advice.status.ToString();
  const advisor::Recommendation& rec = advice.rec;
  if (rec.degraded) return "recommendation degraded";
  if (rec.memory > rec.budget * (1.0 + 1e-9)) {
    return "selection exceeds the budget";
  }
  costmodel::IndexConfig applied;
  for (const serve::PlanStep& step : advice.plan.steps) {
    if (step.create) {
      applied.Insert(step.index);
    } else {
      applied.Erase(step.index);
    }
  }
  if (!(applied == rec.selection)) return "plan does not end at the selection";

  costmodel::CostModel model(&w);
  costmodel::ModelBackend backend(&model);
  costmodel::WhatIfEngine fresh(&w, &backend);
  const double before = fresh.WorkloadCost(costmodel::IndexConfig{});
  const double after = fresh.WorkloadCost(rec.selection);
  if (!RelativelyEqual(before, rec.cost_before, 1e-9) ||
      !RelativelyEqual(after, rec.cost_after, 1e-9)) {
    return "workload cost on a fresh engine differs from the reported cost";
  }
  *ratio = after / before;
  return "";
}

void AdviceLayers::Add(const Advice& advice, bool traced) {
  steps_ += static_cast<double>(advice.rec.trace.size());
  plan_steps_.push_back(static_cast<double>(advice.plan.steps.size()));
  if (!traced) return;
  recommend_s_.push_back(advice.recommend_seconds);
  backend_s_.push_back(advice.backend_seconds);
  backend_calls_.push_back(static_cast<double>(advice.backend_calls));
  self_s_.push_back(advice.recommend_seconds -
                    advice.recommend_backend_seconds);
}

void AdviceLayers::Report(const SpanLog& spans, RunResult* result) const {
  result->Set("advisor.recommend_s", Mean(recommend_s_));
  result->Set("costmodel.backend_s", Mean(backend_s_));
  result->Set("costmodel.backend_calls", Mean(backend_calls_));
  result->Set("core.self_s", Mean(self_s_));
  result->Set("serve.plan_s",
              Mean(spans.Durations("serve.BuildDeploymentPlan")));
  result->Set("serve.plan_steps", Mean(plan_steps_));
}

namespace {

/// Input sizes of one advise workload (Appendix-C generator parameters).
struct Shape {
  uint32_t tables;
  uint32_t attributes_per_table;
  uint32_t queries_per_table;
  uint64_t rows_cap;  ///< 0 = the paper's uncapped t * 1M rows
  /// Distinct inputs, rendered during setup; requests cycle through them.
  /// The exact metrics (cost_ratio, whatif_calls) cover one pass, so every
  /// run covers the same inputs however long it lasts.
  size_t pool;
  double budget_fraction;
};

void RunAdvise(const Options& options, const Shape& shape, RunResult* result,
               SpanLog* spans) {
  result->Param("tables", shape.tables);
  result->Param("attributes_per_table", shape.attributes_per_table);
  result->Param("queries_per_table", shape.queries_per_table);
  result->Param("rows_cap", static_cast<double>(shape.rows_cap));
  result->Param("pool", static_cast<double>(shape.pool));
  result->Param("budget_fraction", shape.budget_fraction);

  std::vector<std::string> pool;
  result->Set("setup_s", TimeSetup([&] {
    pool.clear();
    for (size_t i = 0; i < shape.pool; ++i) {
      workload::ScalableWorkloadParams params;
      params.num_tables = shape.tables;
      params.attributes_per_table = shape.attributes_per_table;
      params.queries_per_table = shape.queries_per_table;
      params.rows_per_table_cap = shape.rows_cap;
      params.seed = options.seed * 1000 + i;
      const workload::NamedWorkload named =
          NameWorkload(workload::GenerateScalableWorkload(params));
      auto text = workload::FormatWorkload(named.workload,
                                           named.attribute_names);
      result->Check(text.ok(), "FormatWorkload failed");
      pool.push_back(text.ok() ? std::move(text).value() : std::string());
    }
  }));

  ClosedLoop loop(pool.size(), options.seconds, spans->enabled());
  AdviceLayers layers;
  std::vector<double> ratios, calls;
  const Counters counters_before = SnapshotCounters();
  while (loop.Next()) {
    spans->set_active(loop.traced());
    spans->set_op(loop.op());
    const Clock::time_point t0 = Clock::now();
    auto parsed = workload::ParseWorkload(pool[loop.input()]);
    const Clock::time_point t1 = Clock::now();
    Advice advice;
    if (parsed.ok()) {
      advice = Advise(parsed->workload, shape.budget_fraction,
                      loop.traced(), spans);
    }
    const Clock::time_point t2 = Clock::now();
    spans->Add("workload.ParseWorkload", "workload", t0, t1);
    spans->Add("advise.request", "harness", t0, t2);
    loop.Record(SecondsBetween(t0, t2));

    double ratio = 0.0;
    const std::string failure =
        parsed.ok() ? CheckAdvice(parsed->workload, advice, &ratio)
                    : "ParseWorkload failed: " + parsed.status().ToString();
    result->Op(failure.empty(), failure);
    if (loop.first_pass() && failure.empty()) {
      ratios.push_back(ratio);
      calls.push_back(static_cast<double>(advice.whatif_calls));
    }
    layers.Add(advice, loop.traced());
  }
  const Counters counters_after = SnapshotCounters();

  loop.Report(result);
  result->Set("cost_ratio", GeometricMean(ratios));
  result->Set("whatif_calls", Mean(calls));
  result->Set("workload.parse_s",
              Mean(spans->Durations("workload.ParseWorkload")));
  layers.Report(*spans, result);
  ReportCounterLayers(counters_before, counters_after, loop.ops(),
                      layers.steps(), result);
}

}  // namespace

void RunAdvisePaper(const Options& options, RunResult* result,
                    SpanLog* spans) {
  // Paper scale (Section III): T = 10, N_t = 50, Q_t = 100, read-only, at
  // the advisor's default budget share. T < 256 keeps the shard layer out,
  // so selector and kernel changes show here. One budget share keeps the
  // latency distribution unimodal: with several, the median sat in a gap
  // between their clusters and jumped by 10% between runs of one seed.
  Shape shape{10, 50, 100, 0, 96, 0.2};
  if (options.smoke) shape = Shape{2, 10, 10, 0, 2, 0.2};
  RunAdvise(options, shape, result, spans);
}

void RunAdviseWide(const Options& options, RunResult* result,
                   SpanLog* spans) {
  // 2,000 narrow tables: advisor defaults auto-shard (64 shards), so the
  // global budget arbiter and lazy shard re-expansion dominate.
  Shape shape{2000, 8, 4, 10'000'000, 5, 0.2};
  if (options.smoke) shape = Shape{300, 4, 2, 10'000'000, 1, 0.2};
  RunAdvise(options, shape, result, spans);
}

}  // namespace idxsel::e2e
