// SidecarProvenanceJson (bench_common.h), the one bench source that sees
// the generated provenance.h: a new SHA or dirty flag recompiles this
// file alone.

#include <string>
#include <thread>

#include "provenance.h"

namespace idxsel::bench {

std::string SidecarProvenanceJson() {
  return std::string("\"provenance\": {\"git_sha\": \"" E2E_GIT_SHA
                     "\", \"git_dirty\": " E2E_GIT_DIRTY_JSON
                     ", \"build_type\": \"" E2E_BUILD_TYPE
                     "\", \"hardware_concurrency\": ") +
         std::to_string(std::thread::hardware_concurrency()) + "}";
}

}  // namespace idxsel::bench
