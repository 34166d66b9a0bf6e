// Parallel-pipeline scalability on the Fig. 2 scalable workload: wall-clock
// speedup of H6 construction, the MIP solve, and advisor portfolio racing
// at 1/2/4/8 threads — with the determinism contract checked on every
// measurement (parallel runs must return bit-identical selections; see
// doc/parallelism.md). Writes a bench_parallel.json sidecar with the raw
// seconds and derived speedups next to the usual obs sidecars.
//
// Speedups are physically bounded by the machine: on a single-core host
// every ratio is ~1.0 by construction. hardware_concurrency is recorded in
// the sidecar so downstream tooling can judge the numbers in context.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "bench_common.h"
#include "common/float_cmp.h"
#include "exec/thread_pool.h"
#include "mip/branch_and_bound.h"

namespace idxsel::bench {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

double Seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-`reps` wall time (discards warmup and scheduler noise).
double BestOf(int reps, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) best = std::min(best, Seconds(fn));
  return best;
}

struct Series {
  std::vector<double> seconds;
  bool identical = true;

  double SpeedupAt(size_t idx) const {
    return seconds[idx] > 0.0 ? seconds[0] / seconds[idx] : 0.0;
  }
};

void PrintSeries(const char* label, const Series& s) {
  std::printf("%-22s", label);
  for (size_t i = 0; i < s.seconds.size(); ++i) {
    std::printf("  %7.3fs (%4.2fx)", s.seconds[i], s.SpeedupAt(i));
  }
  std::printf("  identical=%s\n", s.identical ? "yes" : "NO");
}

std::string JsonArray(const std::vector<double>& v, const char* fmt) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), fmt, v[i]);
    if (i != 0) out += ", ";
    out += buf;
  }
  return out + "]";
}

void Run() {
  workload::ScalableWorkloadParams params;  // Fig. 2 shape: T=10, N_t=50
  params.queries_per_table = 100;           // sum Q = 1000
  ModelSetup setup(workload::GenerateScalableWorkload(params));
  const double budget = setup.model->TotalSingleAttributeMemory() * 0.25;
  const int reps = FullMode() ? 5 : 3;

  std::printf(
      "Parallel pipeline scalability — Fig. 2 workload (N=%zu, Q=%zu),\n"
      "budget w=0.25, best of %d runs per point; hardware_concurrency=%u,\n"
      "thread counts 1/2/4/8.\n\n",
      setup.w.num_attributes(), setup.w.num_queries(), reps,
      std::thread::hardware_concurrency());

  // ---------------------------------------------------------- H6 rounds
  Series h6;
  core::RecursiveResult h6_ref;
  for (size_t threads : kThreadCounts) {
    core::RecursiveResult result;
    h6.seconds.push_back(BestOf(reps, [&] {
      costmodel::WhatIfEngine engine(&setup.w, setup.backend.get());
      core::RecursiveOptions options;
      options.budget = budget;
      options.threads = threads;
      result = core::SelectRecursive(engine, options);
    }));
    if (threads == 1) {
      h6_ref = result;
    } else if (!(result.selection == h6_ref.selection) ||
               !ExactlyEqual(result.objective, h6_ref.objective) ||
               result.whatif_calls != h6_ref.whatif_calls) {
      h6.identical = false;
    }
  }
  PrintSeries("H6 construction", h6);

  // ----------------------------------------------------------- MIP solve
  // Problem built once (the build is what-if work, not solver work); each
  // measurement re-solves it from scratch at the given thread count. The
  // point is chosen to *complete*: the Fig. 2 instance at |I|=500/w=0.25
  // DNFs for hours (the paper's CPLEX behavior), which would only measure
  // the time limit. |I|=450 with a tight w=0.02 budget branches heavily
  // yet solves to the 5% gap in seconds.
  const candidates::CandidateSet candidate_set =
      candidates::GenerateCandidates(setup.w,
                                     candidates::CandidateHeuristic::kH1M,
                                     450, 4);
  cophy::PreparedCophy prepared(*setup.engine, candidate_set);
  const double mip_budget =
      setup.model->TotalSingleAttributeMemory() * 0.02;
  Series mip;
  cophy::CophyResult mip_ref;
  for (size_t threads : kThreadCounts) {
    cophy::CophyResult result;
    mip.seconds.push_back(BestOf(reps, [&] {
      mip::SolveOptions options;
      options.mip_gap = 0.05;  // the paper's CPLEX mipgap
      options.time_limit_seconds = CophyTimeLimit();
      options.threads = threads;
      result = prepared.Solve(mip_budget, options);
    }));
    if (threads == 1) {
      mip_ref = result;
    } else if (!(result.selection == mip_ref.selection)) {
      mip.identical = false;
    }
  }
  PrintSeries("MIP solve", mip);

  // ----------------------------------------------------- portfolio race
  // H6 raced against H4 and H5 over a shared candidate set; the race adds
  // lanes, so its speedup can exceed the single-strategy ones once enough
  // threads exist to overlap whole strategies.
  Series portfolio;
  advisor::Recommendation race_ref;
  for (size_t threads : kThreadCounts) {
    advisor::Recommendation result;
    portfolio.seconds.push_back(BestOf(reps, [&] {
      costmodel::WhatIfEngine engine(&setup.w, setup.backend.get());
      advisor::AdvisorOptions options;
      options.strategy = advisor::StrategyKind::kRecursive;
      options.portfolio = {advisor::StrategyKind::kH4,
                           advisor::StrategyKind::kH5};
      options.candidate_limit = 300;
      options.budget_bytes = budget;
      options.threads = threads;
      auto rec = advisor::Recommend(engine, options);
      if (rec.ok()) result = std::move(*rec);
    }));
    if (threads == 1) {
      race_ref = result;
    } else if (!(result.selection == race_ref.selection) ||
               result.executed_strategy != race_ref.executed_strategy) {
      portfolio.identical = false;
    }
  }
  PrintSeries("Advisor portfolio", portfolio);

  // -------------------------------------------------------- JSON sidecar
  std::string json = "{\n" + SidecarHeaderJson("idxsel.bench_parallel.v1");
  json += "  \"workload\": {\"tables\": 10, \"attributes\": " +
          std::to_string(setup.w.num_attributes()) +
          ", \"queries\": " + std::to_string(setup.w.num_queries()) + "},\n";
  json += "  \"budget_fraction\": 0.25,\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"repetitions\": " + std::to_string(reps) + ",\n";
  json += "  \"thread_counts\": [1, 2, 4, 8],\n";
  const auto section = [&](const char* name, const Series& s) {
    std::vector<double> speedups;
    for (size_t i = 0; i < s.seconds.size(); ++i) {
      speedups.push_back(s.SpeedupAt(i));
    }
    return std::string("  \"") + name + "\": {\"seconds\": " +
           JsonArray(s.seconds, "%.6f") +
           ", \"speedup\": " + JsonArray(speedups, "%.3f") +
           ", \"bit_identical\": " + (s.identical ? "true" : "false") + "}";
  };
  json += section("h6", h6) + ",\n";
  json += section("mip", mip) + ",\n";
  json += section("portfolio", portfolio) + "\n";
  json += "}\n";
  std::FILE* f = std::fopen("bench_parallel.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nresults written to bench_parallel.json\n");
  }

  if (!h6.identical || !mip.identical || !portfolio.identical) {
    std::printf("\nWARNING: a parallel run diverged from serial — "
                "determinism contract violated!\n");
  }
}

}  // namespace
}  // namespace idxsel::bench

int main() {
  idxsel::bench::ObsSession obs("bench_parallel");
  idxsel::bench::Run();
  return 0;
}
