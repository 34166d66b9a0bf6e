// bench_e2e — workload in, deployment plan out, measured end to end.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out-dir <dir>]
//
// Workloads: advise-paper, advise-wide, serve-drift, deploy-measured
// (README.md says what each one measures and why). An untraced run
// reports the end-to-end metrics; --trace 1 reports the per-layer ones.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The full result, with provenance and parameters, goes to
// <out-dir>/<workload>.result.json (untraced) or <workload>.layers.json
// plus the Chrome trace <workload>.trace.json (traced). A failed output
// check exits 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "obs/runtime.h"
#include "trace.h"
#include "workloads.h"

namespace {

using idxsel::e2e::Options;

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "advise-paper|advise-wide|serve-drift|deploy-measured "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--out-dir <dir>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (!(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace idxsel::e2e;
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");

  void (*run)(const Options&, RunResult*, SpanLog*) = nullptr;
  if (options.workload == "advise-paper") run = RunAdvisePaper;
  if (options.workload == "advise-wide") run = RunAdviseWide;
  if (options.workload == "serve-drift") run = RunServeDrift;
  if (options.workload == "deploy-measured") run = RunDeployMeasured;
  if (run == nullptr) return Usage("unknown workload");

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) return Usage("cannot create the output directory");

  // Library spans and latency histograms stay off in both kinds of run:
  // every number here is measured from outside, around public calls.
  idxsel::obs::SetEnabled(false);
  RunResult result;
  SpanLog spans(options.trace);
  run(options, &result, &spans);
  result.Set("peak_rss_mb", PeakRssMb());
  result.CheckReported(options);

  const std::string stem = options.out_dir + "/" + options.workload;
  result.Check(result.WriteFile(options, stem + (options.trace
                                                     ? ".layers.json"
                                                     : ".result.json")),
               "cannot write the result file");
  if (options.trace) {
    result.Check(spans.WriteChromeTrace(stem + ".trace.json"),
                 "cannot write the Chrome trace");
  }
  result.Print(options);
  return result.correct() ? 0 : 1;
}
