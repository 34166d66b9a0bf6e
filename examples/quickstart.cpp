// Quickstart: define a tiny workload by hand, run the recursive selector
// (Algorithm 1 / H6), and print the chosen indexes with their construction
// trace.
//
//   $ ./build/examples/quickstart [time_limit_ms]
//
// The optional argument is a wall-clock budget in milliseconds: the
// selector then runs as an anytime algorithm and reports whether it
// finished or returned its best-so-far incumbent (doc/robustness.md).
//
// This is the five-minute tour of the public API:
//   1. Workload       — tables, attributes, query templates
//   2. CostModel      — the reproducible Appendix-B cost model
//   3. WhatIfEngine   — caching what-if facade
//   4. SelectRecursive — the paper's contribution
//   5. obs::RunScope  — what the run cost (what-if calls, cache hit rate,
//                       wall time per phase)
//
// Run with IDXSEL_JOURNAL=1 to also export the decision journal — why
// each index was created or extended, and what lost to it — as
// quickstart.journal.jsonl (render it with tools/idxsel_report).

#include <cstdio>
#include <cstdlib>

#include "common/deadline.h"
#include "common/format.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "obs/obs.h"
#include "workload/workload.h"

using idxsel::FormatBytes;
using idxsel::FormatDouble;

int main(int argc, char** argv) {
  using namespace idxsel;  // NOLINT: example brevity

  // 1. A web-shop "orders" table with five columns and four query shapes.
  workload::Workload w;
  const auto orders = w.AddTable("orders", 2'000'000);
  const auto customer_id = w.AddAttribute(orders, 150'000, 4);
  const auto status = w.AddAttribute(orders, 8, 4);
  const auto country = w.AddAttribute(orders, 90, 4);
  const auto created_day = w.AddAttribute(orders, 1'500, 4);
  const auto warehouse = w.AddAttribute(orders, 40, 4);

  // "Frequency" is executions over the tuning window.
  (void)*w.AddQuery(orders, {customer_id}, 12'000);             // point look-up
  (void)*w.AddQuery(orders, {customer_id, status}, 9'000);      // open orders
  (void)*w.AddQuery(orders, {country, status}, 1'500);          // ops dashboard
  (void)*w.AddQuery(orders, {warehouse, created_day, status}, 800);  // picking
  w.Finalize();

  // 2-3. Cost model + caching what-if engine. Turning observability on
  //      before the engine runs makes spans and latency histograms flow
  //      into the run report printed at the bottom.
  obs::SetEnabled(true);
  obs::RunScope obs_run("quickstart H6");
  obs::JournalScope journal_scope({"h6"});
  const costmodel::CostModel model(&w);
  costmodel::ModelBackend backend(&model);
  costmodel::WhatIfEngine engine(&w, &backend);

  // 4. Give the advisor half of the memory all single-attribute indexes
  //    would need, and let it construct a configuration. Plain H6 runs
  //    serially; only the Remark-2 evaluation mode fans out over
  //    `options.threads` lanes (doc/parallelism.md).
  core::RecursiveOptions options;
  options.budget = model.Budget(0.5);
  if (argc > 1) {
    const double limit_ms = std::strtod(argv[1], nullptr);
    options.deadline = rt::Deadline::After(limit_ms / 1000.0);
    std::printf("time limit: %s ms\n", FormatDouble(limit_ms, 1).c_str());
  }
  const core::RecursiveResult result = core::SelectRecursive(engine, options);
  std::printf("status: %s\n", result.status.ok()
                                  ? "completed"
                                  : result.status.ToString().c_str());

  const char* names[] = {"customer_id", "status", "country", "created_day",
                         "warehouse"};
  auto index_name = [&](const costmodel::Index& k) {
    std::string out = "(";
    for (size_t u = 0; u < k.width(); ++u) {
      if (u != 0) out += ", ";
      out += names[k.attribute(u)];
    }
    return out + ")";
  };

  std::printf("budget: %s\n", FormatBytes(options.budget).c_str());
  std::printf("construction steps:\n");
  for (const core::ConstructionStep& step : result.trace) {
    const char* verb =
        step.kind == core::StepKind::kNewSingle ? "create" : "extend to";
    std::printf("  %-10s %-38s  +%-10s cost %s -> %s\n", verb,
                index_name(step.after).c_str(),
                FormatBytes(step.memory_delta).c_str(),
                FormatDouble(step.objective_before, 0).c_str(),
                FormatDouble(step.objective_after, 0).c_str());
  }
  std::printf("\nfinal selection (%zu indexes, %s):\n",
              result.selection.size(), FormatBytes(result.memory).c_str());
  for (const costmodel::Index& k : result.selection.indexes()) {
    std::printf("  CREATE INDEX ON orders %s\n", index_name(k).c_str());
  }
  const double base = engine.WorkloadCost(costmodel::IndexConfig{});
  std::printf("\nworkload cost: %s -> %s (%.1f%% of unindexed)\n",
              FormatDouble(base, 0).c_str(),
              FormatDouble(result.objective, 0).c_str(),
              100.0 * result.objective / base);

  // 5. What did that run cost us? Counters (what-if calls, cache hit
  //    rate, selector steps) and the span tree of the phases. With
  //    IDXSEL_JOURNAL=1 the decision journal rides along as a sidecar.
  const std::vector<obs::JournalRecord> journal = journal_scope.Finish();
  if (!journal.empty()) {
    const std::string jsonl = obs::JournalToJsonl(journal);
    if (std::FILE* f = std::fopen("quickstart.journal.jsonl", "w")) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
      std::printf("\ndecision journal: quickstart.journal.jsonl "
                  "(%zu records; render with tools/idxsel_report)\n",
                  journal.size());
    }
  }
  std::printf("\n%s", obs_run.Finish().Summary().c_str());
  return 0;
}
