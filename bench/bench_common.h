// Shared plumbing for the paper-reproduction bench harnesses.
//
// Environment knobs (so `for b in build/bench/*; do $b; done` stays fast by
// default but can reproduce the paper's full scale):
//   IDXSEL_BENCH_FULL=1         run the full problem sizes of the paper
//   IDXSEL_BENCH_TIME_LIMIT=s   CoPhy solver wall-clock limit per solve
//                               (default 5 s quick / 60 s full; the paper
//                               used an 8-hour cutoff -> "DNF")
//   IDXSEL_OBS=0                keep observability off (benches enable it
//                               by default and write metrics/trace JSON
//                               sidecars next to their CSVs)

#ifndef IDXSEL_BENCH_BENCH_COMMON_H_
#define IDXSEL_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "candidates/candidates.h"
#include "cophy/cophy.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "frontier/frontier.h"
#include "obs/obs.h"
#include "selection/heuristics.h"
#include "workload/scalable_generator.h"

namespace idxsel::bench {

inline bool FullMode() {
  const char* v = std::getenv("IDXSEL_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

inline double CophyTimeLimit() {
  if (const char* v = std::getenv("IDXSEL_BENCH_TIME_LIMIT")) {
    return std::atof(v);
  }
  return FullMode() ? 60.0 : 5.0;
}

// ---------------------------------------------------- sidecar provenance
// Every bench JSON sidecar carries the same header so two runs can be
// compared with their context attached: the schema tag of the document,
// plus a provenance object with the full git SHA, whether tracked files
// differed from it, and the build type, all captured when the binary was
// built (benches.cmake), and the machine's hardware concurrency.

/// The shared provenance fragment: `"provenance": {...}` (no trailing
/// comma or newline — callers splice it where their document needs it).
/// `git_dirty` is null outside a git checkout. Defined in
/// bench_provenance.cc.
std::string SidecarProvenanceJson();

/// Opening fields of a custom sidecar document:
/// `  "schema": "<schema>",\n  "provenance": {...},\n`.
inline std::string SidecarHeaderJson(const char* schema) {
  return std::string("  \"schema\": \"") + schema + "\",\n  " +
         SidecarProvenanceJson() + ",\n";
}

/// Splices the provenance fragment right after the opening `{` of a
/// document that already carries its own schema field (the RunReport
/// sidecars of ObsSession). Returns the body unchanged when it is not a
/// JSON object.
inline std::string WithSidecarProvenance(std::string body) {
  const size_t brace = body.find('{');
  if (brace == std::string::npos) return body;
  return body.substr(0, brace + 1) + "\n  " + SidecarProvenanceJson() + "," +
         body.substr(brace + 1);
}

/// Brackets a bench binary with observability: enables obs (unless the
/// IDXSEL_OBS environment variable says otherwise) and, on destruction,
/// writes `<stem>.metrics.json` and `<stem>.trace.json` into the working
/// directory — the self-describing sidecars next to the bench's CSVs.
class ObsSession {
 public:
  explicit ObsSession(std::string stem)
      : stem_(std::move(stem)), scope_(stem_) {
    if (std::getenv("IDXSEL_OBS") == nullptr) obs::SetEnabled(true);
  }

  ~ObsSession() {
    const obs::RunReport report = scope_.Finish();
    WriteFile(stem_ + ".metrics.json",
              WithSidecarProvenance(report.MetricsJson()));
    WriteFile(stem_ + ".trace.json",
              WithSidecarProvenance(report.TraceJson()));
    std::printf(
        "observability: %s.metrics.json + %s.trace.json written "
        "(load the trace via chrome://tracing or ui.perfetto.dev)\n",
        stem_.c_str(), stem_.c_str());
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  static void WriteFile(const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "observability: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }

  std::string stem_;
  obs::RunScope scope_;
};

/// Workload + Appendix-B model + caching what-if engine, bundled.
struct ModelSetup {
  workload::Workload w;
  std::unique_ptr<costmodel::CostModel> model;
  std::unique_ptr<costmodel::ModelBackend> backend;
  std::unique_ptr<costmodel::WhatIfEngine> engine;

  explicit ModelSetup(workload::Workload workload_in)
      : w(std::move(workload_in)) {
    model = std::make_unique<costmodel::CostModel>(&w);
    backend = std::make_unique<costmodel::ModelBackend>(model.get());
    engine = std::make_unique<costmodel::WhatIfEngine>(&w, backend.get());
  }
};

/// H6 as a frontier::Strategy.
inline frontier::Strategy H6Strategy(costmodel::WhatIfEngine& engine) {
  return [&engine](double budget) {
    core::RecursiveOptions options;
    options.budget = budget;
    frontier::StrategyOutcome outcome;
    outcome.selection = core::SelectRecursive(engine, options).selection;
    return outcome;
  };
}

/// CoPhy on a fixed candidate set as a frontier::Strategy (mipgap 5%,
/// time-limited; timeouts surface as DNF points carrying the incumbent).
/// The problem is built once and re-solved per budget (PreparedCophy).
inline frontier::Strategy CophyStrategy(
    costmodel::WhatIfEngine& engine,
    const candidates::CandidateSet& candidate_set) {
  auto prepared =
      std::make_shared<cophy::PreparedCophy>(engine, candidate_set);
  return [prepared](double budget) {
    mip::SolveOptions options;
    options.mip_gap = 0.05;
    options.time_limit_seconds = CophyTimeLimit();
    const cophy::CophyResult result = prepared->Solve(budget, options);
    frontier::StrategyOutcome outcome;
    outcome.selection = result.selection;
    outcome.dnf = result.dnf;
    return outcome;
  };
}

}  // namespace idxsel::bench

#endif  // IDXSEL_BENCH_BENCH_COMMON_H_
