// Thread scaling of the stages that fan out — the Remark-2 H6 evaluators,
// the MIP solve and advisor portfolio racing — at 1/2/4/8 threads, plus
// plain H6, which runs serially at any thread count, as the control. Every
// run is checked against the serial run of its series (the determinism
// contract of doc/parallelism.md); a divergence fails the process. Writes
// a bench_parallel.json sidecar with every run's seconds, the median and
// quartiles per point, and the median-based speedups.
//
// Reps are interleaved (rep r runs every thread count before rep r+1
// starts), so a drift of the machine's speed hits every point alike.
// Speedups are physically bounded by the machine: on a single-core host
// every ratio is ~1.0 by construction. hardware_concurrency is recorded in
// the sidecar so downstream tooling can judge the numbers in context.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "bench_common.h"
#include "common/float_cmp.h"
#include "mip/branch_and_bound.h"

namespace idxsel::bench {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kPoints = sizeof(kThreadCounts) / sizeof(kThreadCounts[0]);

double Seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Linear-interpolation quantile of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// One stage measured at every thread count. `run(threads)` performs one
/// timed run and returns whether its result equals the serial reference
/// (it records the reference itself on its first threads == 1 call).
struct Series {
  const char* key;    ///< sidecar field
  const char* label;  ///< console label
  std::function<bool(size_t threads)> run;
  std::vector<std::vector<double>> seconds =
      std::vector<std::vector<double>>(kPoints);  ///< per point, per rep
  bool identical = true;

  double Median(size_t point) const { return Quantile(seconds[point], 0.5); }
  double Speedup(size_t point) const {
    const double t = Median(point);
    return t > 0.0 ? Median(0) / t : 0.0;
  }
};

void PrintSeries(const Series& s) {
  std::printf("%-26s", s.label);
  for (size_t p = 0; p < kPoints; ++p) {
    std::printf("  %7.3fs [%6.3f-%6.3f] (%4.2fx)", s.Median(p),
                Quantile(s.seconds[p], 0.25), Quantile(s.seconds[p], 0.75),
                s.Speedup(p));
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

std::string JsonSection(const Series& s) {
  std::vector<double> median;
  std::vector<double> q1;
  std::vector<double> q3;
  std::vector<double> speedup;
  std::string runs = "[";
  for (size_t p = 0; p < kPoints; ++p) {
    median.push_back(s.Median(p));
    q1.push_back(Quantile(s.seconds[p], 0.25));
    q3.push_back(Quantile(s.seconds[p], 0.75));
    speedup.push_back(s.Speedup(p));
    if (p != 0) runs += ", ";
    runs += JsonArray(s.seconds[p], "%.6f");
  }
  runs += "]";
  return std::string("  \"") + s.key + "\": {\"median_seconds\": " +
         JsonArray(median, "%.6f") + ", \"q1_seconds\": " +
         JsonArray(q1, "%.6f") + ", \"q3_seconds\": " +
         JsonArray(q3, "%.6f") + ", \"speedup\": " +
         JsonArray(speedup, "%.3f") + ", \"runs\": " + runs +
         ", \"bit_identical\": " + (s.identical ? "true" : "false") + "}";
}

bool SameRecursive(const core::RecursiveResult& a,
                   const core::RecursiveResult& b) {
  return a.selection == b.selection && ExactlyEqual(a.objective, b.objective) &&
         a.whatif_calls == b.whatif_calls && a.trace.size() == b.trace.size();
}

int Run() {
  workload::ScalableWorkloadParams params;  // Fig. 2 shape: T=10, N_t=50
  params.queries_per_table = 100;           // sum Q = 1000
  ModelSetup setup(workload::GenerateScalableWorkload(params));
  const double budget = setup.model->TotalSingleAttributeMemory() * 0.25;
  const int reps = FullMode() ? 11 : 5;

  // Remark 2 re-costs every affected query against a whole hypothetical
  // configuration per move. On half the Fig. 2 queries one serial run
  // takes about 4 s on a 2.1 GHz Xeon: enough work per round to fan out,
  // short enough for interleaved reps.
  workload::ScalableWorkloadParams remark2_params;
  remark2_params.queries_per_table = 50;  // sum Q = 500
  ModelSetup remark2(workload::GenerateScalableWorkload(remark2_params));
  const double remark2_budget =
      remark2.model->TotalSingleAttributeMemory() * 0.25;

  std::printf(
      "Parallel pipeline scalability — Fig. 2 workload (N=%zu, Q=%zu;\n"
      "Remark 2 on Q=%zu), budget w=0.25, median [quartiles] of %d\n"
      "interleaved runs per point; hardware_concurrency=%u, thread counts\n"
      "1/2/4/8.\n\n",
      setup.w.num_attributes(), setup.w.num_queries(),
      remark2.w.num_queries(), reps, std::thread::hardware_concurrency());

  // Plain H6: serial at any thread count (the control).
  core::RecursiveResult h6_ref;
  bool have_h6_ref = false;
  Series h6{"h6_plain", "H6 plain (serial)", [&](size_t threads) {
              costmodel::WhatIfEngine engine(&setup.w, setup.backend.get());
              core::RecursiveOptions options;
              options.budget = budget;
              options.threads = threads;
              const core::RecursiveResult result =
                  core::SelectRecursive(engine, options);
              if (threads == 1 && !have_h6_ref) {
                h6_ref = result;
                have_h6_ref = true;
              }
              return SameRecursive(result, h6_ref);
            }};

  // Remark-2 H6: the one H6 stage that fans out, once per round.
  core::RecursiveResult remark2_ref;
  bool have_remark2_ref = false;
  Series h6_remark2{
      "h6_remark2", "H6 Remark 2", [&](size_t threads) {
        costmodel::WhatIfEngine engine(&remark2.w, remark2.backend.get());
        core::RecursiveOptions options;
        options.budget = remark2_budget;
        options.multi_index_eval = true;
        options.threads = threads;
        const core::RecursiveResult result =
            core::SelectRecursive(engine, options);
        if (threads == 1 && !have_remark2_ref) {
          remark2_ref = result;
          have_remark2_ref = true;
        }
        return SameRecursive(result, remark2_ref);
      }};

  // MIP solve. The problem is built once (the build is what-if work, not
  // solver work); each run re-solves it from scratch. The point is chosen
  // to *complete*: the Fig. 2 instance at |I|=500/w=0.25 DNFs for hours
  // (the paper's CPLEX behavior), which would only measure the time
  // limit. |I|=400 with a tight w=0.02 budget branches heavily yet solves
  // to the 5% gap in about 2.5 s serially, well inside the quick-mode
  // 5 s limit; a run that hits the limit counts as a divergence, because
  // a DNF incumbent depends on timing.
  const candidates::CandidateSet candidate_set =
      candidates::GenerateCandidates(setup.w,
                                     candidates::CandidateHeuristic::kH1M,
                                     400, 4);
  cophy::PreparedCophy prepared(*setup.engine, candidate_set);
  const double mip_budget = setup.model->TotalSingleAttributeMemory() * 0.02;
  cophy::CophyResult mip_ref;
  bool have_mip_ref = false;
  Series mip{"mip", "MIP solve", [&](size_t threads) {
               mip::SolveOptions options;
               options.mip_gap = 0.05;  // the paper's CPLEX mipgap
               options.time_limit_seconds = CophyTimeLimit();
               options.threads = threads;
               const cophy::CophyResult result =
                   prepared.Solve(mip_budget, options);
               if (threads == 1 && !have_mip_ref) {
                 mip_ref = result;
                 have_mip_ref = true;
               }
               return !result.dnf && result.selection == mip_ref.selection &&
                      ExactlyEqual(result.objective, mip_ref.objective);
             }};

  // Portfolio race: H6 against H4 and H5 over a shared candidate set; the
  // lanes run concurrently once there are threads for them.
  advisor::Recommendation race_ref;
  bool have_race_ref = false;
  Series portfolio{
      "portfolio", "Advisor portfolio", [&](size_t threads) {
        costmodel::WhatIfEngine engine(&setup.w, setup.backend.get());
        advisor::AdvisorOptions options;
        options.strategy = advisor::StrategyKind::kRecursive;
        options.portfolio = {advisor::StrategyKind::kH4,
                             advisor::StrategyKind::kH5};
        options.candidate_limit = 300;
        options.budget_bytes = budget;
        options.threads = threads;
        auto rec = advisor::Recommend(engine, options);
        if (!rec.ok()) return false;
        if (threads == 1 && !have_race_ref) {
          race_ref = std::move(*rec);
          have_race_ref = true;
          return true;
        }
        return rec->selection == race_ref.selection &&
               rec->executed_strategy == race_ref.executed_strategy;
      }};

  std::vector<Series*> all = {&h6, &h6_remark2, &mip, &portfolio};
  for (Series* s : all) {
    for (int r = 0; r < reps; ++r) {
      for (size_t p = 0; p < kPoints; ++p) {
        bool same = true;
        s->seconds[p].push_back(
            Seconds([&] { same = s->run(kThreadCounts[p]); }));
        s->identical = s->identical && same;
      }
    }
    PrintSeries(*s);
  }

  // -------------------------------------------------------- JSON sidecar
  std::string json = "{\n" + SidecarHeaderJson("idxsel.bench_parallel.v2");
  json += "  \"workload\": {\"tables\": 10, \"attributes\": " +
          std::to_string(setup.w.num_attributes()) +
          ", \"queries\": " + std::to_string(setup.w.num_queries()) +
          ", \"remark2_queries\": " +
          std::to_string(remark2.w.num_queries()) + "},\n";
  json += "  \"budget_fraction\": 0.25,\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"repetitions\": " + std::to_string(reps) + ",\n";
  json += "  \"thread_counts\": [1, 2, 4, 8],\n";
  for (size_t i = 0; i < all.size(); ++i) {
    json += JsonSection(*all[i]) + (i + 1 < all.size() ? ",\n" : "\n");
  }
  json += "}\n";
  std::FILE* f = std::fopen("bench_parallel.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nresults written to bench_parallel.json\n");
  }

  bool diverged = false;
  for (const Series* s : all) {
    if (!s->identical) {
      std::fprintf(stderr,
                   "FAIL: %s — a run diverged from the serial run "
                   "(determinism contract violated, or a MIP run hit its "
                   "time limit)\n",
                   s->label);
      diverged = true;
    }
  }
  return diverged ? 1 : 0;
}

}  // namespace
}  // namespace idxsel::bench

int main() {
  idxsel::bench::ObsSession obs("bench_parallel");
  return idxsel::bench::Run();
}
