// deploy-measured: the paper's Section IV-B setting as a pipeline. One
// operation is one tuning cycle on the bundled column-store engine: advice
// (Recommend -> plan), then every CREATE of the plan applied in plan order
// as a CompositeIndex build, with the workload executed before the first
// step and after every step. The last pass is the "after" state; the ones
// between are the intermediate states a deployment goes through.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "costmodel/cost_model.h"
#include "engine/column_store.h"
#include "engine/composite_index.h"
#include "engine/executor.h"
#include "workload/scalable_generator.h"
#include "workloads.h"

namespace idxsel::e2e {
namespace {

struct Shape {
  uint32_t tables;
  uint32_t attributes_per_table;
  uint32_t queries_per_table;
  uint64_t rows;  ///< rows of every table, all materialized
  /// Distinct inputs; cycle i runs input i % pool, materialized just before
  /// it. The exact metrics cover one pass over the pool.
  size_t pool;
  double budget_fraction;
  /// Executions of each query per pass; its runtime t_j is their median.
  /// Single executions, not fixed-length batches, so a pass takes longer
  /// exactly when the engine does.
  int executions;
};

/// One materialized input: the workload, its column store, one concrete
/// predicate list per query template, and a scan/probe executor per table.
struct Input {
  workload::Workload w;
  std::unique_ptr<engine::Database> db;
  std::vector<std::vector<engine::Predicate>> predicates;
  std::vector<engine::Executor> executors;
};

std::unique_ptr<Input> Materialize(const Shape& shape, uint64_t seed,
                                   double* db_build_seconds) {
  auto in = std::make_unique<Input>();
  workload::ScalableWorkloadParams params;
  params.num_tables = shape.tables;
  params.attributes_per_table = shape.attributes_per_table;
  params.queries_per_table = shape.queries_per_table;
  params.rows_per_table_step = shape.rows;
  params.rows_per_table_cap = shape.rows;
  params.seed = seed;
  in->w = workload::GenerateScalableWorkload(params);
  const workload::Workload& w = in->w;

  const Clock::time_point start = Clock::now();
  in->db = std::make_unique<engine::Database>(&w, shape.rows, seed + 1);
  *db_build_seconds = SecondsSince(start);

  for (workload::TableId t = 0; t < w.num_tables(); ++t) {
    std::vector<uint32_t> distinct;
    for (workload::AttributeId a : w.table(t).attributes) {
      distinct.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(w.attribute(a).distinct_values, in->db->rows(t))));
    }
    in->executors.emplace_back(&in->db->table(t), std::move(distinct));
  }
  // Each template gets the literals of one sampled row, so every query has
  // at least one match on every access path.
  Rng rng(seed + 2);
  for (const workload::Query& q : w.queries()) {
    const engine::ColumnTable& table = in->db->table(q.table);
    const auto row = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(table.num_rows()) - 1));
    std::vector<engine::Predicate> predicates;
    for (workload::AttributeId a : q.attributes) {
      const uint32_t column = in->db->ordinal(a);
      predicates.push_back(engine::Predicate{column, table.at(column, row)});
    }
    in->predicates.push_back(std::move(predicates));
  }
  return in;
}

struct BuiltIndex {
  costmodel::Index index;
  std::unique_ptr<engine::CompositeIndex> physical;
};

/// One execution of the whole workload in one configuration state.
struct Pass {
  double weighted_ms = 0.0;    ///< sum b_j t_j / sum b_j
  double weighted_rows = 0.0;  ///< sum b_j rows_touched_j / sum b_j
  std::vector<double> scan_us;   ///< t_j of scan-path queries
  std::vector<double> probe_us;  ///< t_j of index-path queries
  bool matches_ok = true;
};

/// Executes every query on the access path an optimizer picks in `state`:
/// the applicable built index with the lowest model cost, or a scan when
/// none beats it. `truth` holds the scan-only match count per query; an
/// empty `truth` is filled from this pass (which must be the no-index one).
Pass RunPass(const Input& in, const std::vector<BuiltIndex>& state,
             costmodel::WhatIfEngine& optimizer, int executions,
             std::vector<uint64_t>* truth) {
  Pass pass;
  const bool record = truth->empty();
  double weight = 0.0;
  std::vector<double> times;
  for (workload::QueryId j = 0; j < in.w.num_queries(); ++j) {
    const workload::Query& q = in.w.query(j);
    const engine::CompositeIndex* path = nullptr;
    double best = optimizer.BaseCost(j);
    for (const BuiltIndex& built : state) {
      if (!optimizer.Applicable(j, built.index)) continue;
      const double cost = optimizer.CostWithIndex(j, built.index);
      if (cost < best) {
        best = cost;
        path = built.physical.get();
      }
    }
    const engine::Executor& executor = in.executors[q.table];
    engine::ExecutionResult r;
    times.clear();
    for (int e = 0; e < executions; ++e) {
      const Clock::time_point start = Clock::now();
      r = path == nullptr ? executor.ScanOnly(in.predicates[j])
                          : executor.WithIndex(in.predicates[j], *path);
      times.push_back(SecondsSince(start));
    }
    const double t = Median(times);
    if (record) {
      truth->push_back(r.matches);
    } else if (r.matches != (*truth)[j]) {
      pass.matches_ok = false;
    }
    weight += q.frequency;
    pass.weighted_ms += q.frequency * t * 1e3;
    pass.weighted_rows += q.frequency * static_cast<double>(r.rows_touched);
    (path == nullptr ? pass.scan_us : pass.probe_us).push_back(t * 1e6);
  }
  pass.weighted_ms /= weight;
  pass.weighted_rows /= weight;
  return pass;
}

}  // namespace

void RunDeployMeasured(const Options& options, RunResult* result,
                       SpanLog* spans) {
  // 24 equal tables of 20k rows (120 templates): a cycle's time and quality
  // average over many comparable tables, so a run of 32 inputs repeats
  // across seeds; with the paper's t * rows growth the largest table alone
  // decided both. Inputs are materialized one at a time (about 20 MB each).
  Shape shape{24, 10, 5, 20'000, 32, 0.2, 5};
  if (options.smoke) shape = Shape{2, 6, 6, 4'000, 1, 0.2, 3};
  result->Param("tables", shape.tables);
  result->Param("attributes_per_table", shape.attributes_per_table);
  result->Param("queries_per_table", shape.queries_per_table);
  result->Param("rows", static_cast<double>(shape.rows));
  result->Param("pool", static_cast<double>(shape.pool));
  result->Param("budget_fraction", shape.budget_fraction);
  result->Param("executions", shape.executions);

  ClosedLoop loop(shape.pool, options.seconds, spans->enabled());
  AdviceLayers layers;
  std::unique_ptr<Input> input;
  std::vector<double> prepare_s, db_build_s, ratios, calls;
  std::vector<double> build_s, index_bytes, deploy_s, before_ms, during_ms,
      after_ms, realized, rows_ratio, scan_us, probe_us;
  const Counters counters_before = SnapshotCounters();
  while (loop.Next()) {
    if (loop.new_input()) {
      // Setup of this cycle's input: generation, column store, literals.
      input.reset();
      const Clock::time_point p0 = Clock::now();
      double db_seconds = 0.0;
      input = Materialize(shape, options.seed * 1000 + loop.input(),
                          &db_seconds);
      prepare_s.push_back(SecondsSince(p0));
      db_build_s.push_back(db_seconds);
    }
    const Input& in = *input;
    spans->set_active(loop.traced());
    spans->set_op(loop.op());

    const Clock::time_point t0 = Clock::now();
    const Advice advice = Advise(in.w, shape.budget_fraction,
                                 loop.traced(), spans);
    costmodel::CostModel model(&in.w);
    costmodel::ModelBackend backend(&model);
    costmodel::WhatIfEngine optimizer(&in.w, &backend);
    std::vector<uint64_t> truth;
    std::vector<BuiltIndex> state;
    const Clock::time_point b0 = Clock::now();
    const Pass before = RunPass(in, state, optimizer, shape.executions, &truth);
    spans->Add("engine.pass", "engine", b0, Clock::now());
    std::vector<Pass> passes;
    double deploy = 0.0;
    for (const serve::PlanStep& step : advice.plan.steps) {
      if (!step.create) continue;  // plans from the empty state only create
      std::vector<uint32_t> columns;
      for (workload::AttributeId a : step.index.attributes()) {
        columns.push_back(in.db->ordinal(a));
      }
      const workload::TableId table =
          in.w.attribute(step.index.leading()).table;
      const Clock::time_point c0 = Clock::now();
      auto physical = std::make_unique<engine::CompositeIndex>(
          &in.db->table(table), std::move(columns));
      const Clock::time_point c1 = Clock::now();
      spans->Add("engine.CompositeIndex", "engine", c0, c1);
      deploy += SecondsBetween(c0, c1);
      build_s.push_back(SecondsBetween(c0, c1));
      index_bytes.push_back(static_cast<double>(physical->memory_bytes()));
      state.push_back(BuiltIndex{step.index, std::move(physical)});
      passes.push_back(
          RunPass(in, state, optimizer, shape.executions, &truth));
      spans->Add("engine.pass", "engine", c1, Clock::now());
    }
    const Clock::time_point t1 = Clock::now();
    spans->Add("deploy.cycle", "harness", t0, t1);
    loop.Record(SecondsBetween(t0, t1));

    double ratio = 0.0;
    std::string failure = CheckAdvice(in.w, advice, &ratio);
    const bool matches_ok =
        std::all_of(passes.begin(), passes.end(),
                    [](const Pass& p) { return p.matches_ok; });
    if (failure.empty() && !matches_ok) {
      failure = "an index plan returned other rows than the scan";
    }
    result->Op(failure.empty(), failure);
    if (loop.first_pass() && failure.empty()) {
      ratios.push_back(ratio);
      calls.push_back(static_cast<double>(advice.whatif_calls));
    }
    layers.Add(advice, loop.traced());

    const Pass& after = passes.empty() ? before : passes.back();
    for (size_t s = 0; s + 1 < passes.size(); ++s) {
      during_ms.push_back(passes[s].weighted_ms);
    }
    before_ms.push_back(before.weighted_ms);
    after_ms.push_back(after.weighted_ms);
    realized.push_back(after.weighted_ms / before.weighted_ms);
    rows_ratio.push_back(after.weighted_rows / before.weighted_rows);
    scan_us.insert(scan_us.end(), before.scan_us.begin(), before.scan_us.end());
    probe_us.insert(probe_us.end(), after.probe_us.begin(),
                    after.probe_us.end());
    deploy_s.push_back(deploy);
  }
  const Counters counters_after = SnapshotCounters();

  loop.Report(result);
  result->Set("cost_ratio", GeometricMean(ratios));
  result->Set("whatif_calls", Mean(calls));
  result->Set("setup_s", Median(prepare_s));
  layers.Report(*spans, result);
  ReportCounterLayers(counters_before, counters_after, loop.ops(),
                      layers.steps(), result);
  result->Set("engine.db_build_s", Mean(db_build_s));
  result->Set("engine.index_build_s", Mean(build_s));
  result->Set("engine.index_bytes", Mean(index_bytes));
  result->Set("engine.scan_us", Median(scan_us));
  result->Set("engine.probe_us", Median(probe_us));
  result->Set("engine.rows_touched_ratio", GeometricMean(rows_ratio));
  result->Set("engine.deploy_s", Mean(deploy_s));
  result->Set("engine.exec_before_ms", Mean(before_ms));
  result->Set("engine.exec_during_ms", Mean(during_ms));
  result->Set("engine.exec_after_ms", Mean(after_ms));
  result->Set("engine.realized_ratio", GeometricMean(realized));
}

}  // namespace idxsel::e2e
