// Fuzz harness for the textual workload parser (src/workload/parser.cc).
//
// The parser is the library's untrusted-input boundary: real deployments
// feed it schema/statistics files exported from other systems. The harness
// asserts three properties on arbitrary bytes:
//
//   1. ParseWorkload never crashes, hangs, or trips a sanitizer — it either
//      returns a workload or a Status with a line number.
//   2. It agrees with the reference parser (tests/reference/): the same
//      verdict, the same status message including the line number, and
//      on acceptance the same names, schema, attribute lists, kinds and
//      frequency bits.
//   3. Accepted inputs are a formatter fixpoint: FormatWorkload(parse(x))
//      re-parses successfully and formats to the same text. A drift here
//      means save/load of a tuning problem silently changes it.
//
// Built with libFuzzer under clang (-fsanitize=fuzzer,address); under other
// toolchains tests/fuzz/standalone_main.cc supplies a corpus-replay main()
// so the same invariants run as a plain CI smoke test.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "reference/reference_parser.h"
#include "workload/parser.h"
#include "workload/workload.h"

namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_workload_parser: invariant violated: %s\n",
                 what);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  auto parsed = idxsel::workload::ParseWorkload(text);
  const std::string diff = idxsel::reference::DiffParse(
      parsed, idxsel::reference::ReferenceParseWorkload(text));
  if (!diff.empty()) {
    std::fprintf(stderr,
                 "fuzz_workload_parser: production differs from the "
                 "reference (%s)\n",
                 diff.c_str());
    std::abort();
  }
  if (!parsed.ok()) {
    // Rejections must carry a message; an empty error string would leave
    // users with no way to locate the bad line.
    Require(!parsed.status().ToString().empty(), "error without message");
    return 0;
  }

  auto formatted = idxsel::workload::FormatWorkload(
      parsed->workload, parsed->attribute_names);
  Require(formatted.ok(), "accepted workload failed to format");

  auto reparsed = idxsel::workload::ParseWorkload(*formatted);
  Require(reparsed.ok(), "formatted workload failed to re-parse");

  auto reformatted = idxsel::workload::FormatWorkload(
      reparsed->workload, reparsed->attribute_names);
  Require(reformatted.ok(), "re-parsed workload failed to format");
  Require(*reformatted == *formatted, "format/parse is not a fixpoint");
  return 0;
}
