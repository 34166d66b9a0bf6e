// Fuzz harness for H6 (src/core/recursive_selector.cc) with the naive
// reference (tests/reference/reference_h6.h) as the oracle: it hunts
// wrong recommendations, not only crashes. The bytes decode into a small
// workload (<= 2 tables, <= 10 attributes each, <= 20 queries with
// frequencies and write flags), a budget share and one Remark-1 variant
// or reconfiguration costs — see reference::CheckEncodedCase for the
// encoding. Any difference the reference rules forbid aborts.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "reference/reference_h6.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string diff = idxsel::reference::CheckEncodedCase(data, size);
  if (!diff.empty()) {
    std::fprintf(stderr,
                 "fuzz_h6_reference: production differs from the reference "
                 "(%s)\n",
                 diff.c_str());
    std::abort();
  }
  return 0;
}
