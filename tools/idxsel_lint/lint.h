// idxsel_lint — project-rule static analysis for the idxsel tree.
//
// A lightweight, libclang-free linter: files are reduced to a
// comment/string-stripped "code view" by a small tokenizer, and every
// project rule runs as a named, individually suppressible check over that
// view (plus the CMakeLists.txt files for build-graph rules). The checks
// encode guarantees the test suite cannot see from the outside:
//
//   L1  layering          cross-module #include must follow the DESIGN.md
//                         dependency DAG; kernel/exec never include obs
//       include-cycle     the quoted-include graph must be acyclic
//       journal-bridge    decision records are emitted through
//                         telemetry::EmitJournal; obs::Journal* and
//                         obs/journal.h stay inside src/obs + src/advisor
//       simd-confinement  vector intrinsics (immintrin.h and friends,
//                         _mm*/__m* names) and simd_impl.h stay inside
//                         src/kernel/simd*; everything else calls the
//                         runtime-dispatched entry points in kernel/simd.h
//   L2  determinism-random  rand()/srand()/std::random_device in src/
//                           outside rt (seeded PRNGs live in common/random.h)
//       determinism-clock   wall-clock (system_clock, time(), clock(),
//                           gettimeofday) in src/ outside rt/obs
//       unordered-iter      range-for over unordered containers in
//                           src/core, src/selection, src/mip — selection
//                           decisions iterate deterministic orders
//   L3  double-compare     raw ==/!= on cost-like doubles or float
//                          literals in src/ and bench/ outside the
//                          approved helpers (common/float_cmp.h)
//       missing-check-include  IDXSEL_CHECK*/IDXSEL_DCHECK* used without
//                              common/check.h in the include closure
//       orphan-source      src/ .cc not compiled into its module library,
//                          or a src/ library no test target links
//   L4  lock-order         cross-TU lock-acquisition graph built from
//                          RAII guard scopes (common::MutexLock,
//                          lock_guard/unique_lock/scoped_lock); a cycle
//                          or a nested re-acquisition of the same
//                          class::member lock is deadlock potential
//       guarded-field      `mutable` non-atomic members in the
//                          concurrency modules must carry
//                          IDXSEL_GUARDED_BY, and every common::Mutex
//                          member must guard at least one annotated
//                          field (or carry a reasoned suppression
//                          stating what it serializes instead)
//       atomic-ordering    atomic operations in src/kernel, src/exec,
//                          src/common must name an explicit
//                          std::memory_order; bare seq_cst-default
//                          loads/stores/RMWs and operator forms
//                          (++/--/+=/=) are findings
//       pointer-order      pointer-value ordering (std::less<T*>,
//                          reinterpret_cast<uintptr_t>, relational
//                          compares of .get()) banned in src/core,
//                          src/selection, src/shard, src/mip —
//                          address-dependent order is nondeterminism
//                          the journal cannot see
//
// Suppression syntax (same line, or anywhere in the contiguous block of
// comment-only lines directly above the finding):
//   // idxsel-lint: allow(<check>) reason=<non-empty explanation>
// A suppression without a reason is itself reported
// (suppression-missing-reason), as is one naming an unknown check
// (unknown-check) and a reasoned one whose finding no longer fires
// (stale-suppression). See doc/static_analysis.md.

#ifndef IDXSEL_TOOLS_IDXSEL_LINT_LINT_H_
#define IDXSEL_TOOLS_IDXSEL_LINT_LINT_H_

#include <string>
#include <vector>

namespace idxsel::lint {

struct Finding {
  std::string path;     ///< file path as supplied (normalized to '/')
  int line = 0;         ///< 1-based
  std::string check;    ///< stable check name, usable in allow(...)
  std::string message;
};

struct FileInput {
  std::string path;
  std::string content;
};

struct Options {
  /// Disables the orphan-source build-graph check (used by callers that
  /// lint loose files without their CMakeLists.txt context).
  bool orphan_check = true;
  /// Checks to disable entirely (their findings are dropped, and their
  /// suppressions are exempt from stale-suppression). CI runs with this
  /// empty — see .github/workflows/ci.yml.
  std::vector<std::string> skip;
};

/// Runs every check over the given in-memory files. CMakeLists.txt inputs
/// feed the build-graph checks; all other inputs are treated as C++. Each
/// file belongs to the tree (src, tests, bench, tools, examples) named by
/// the innermost such directory in its path. Findings come back sorted by
/// (path, line, check).
std::vector<Finding> LintFiles(const std::vector<FileInput>& files,
                               const Options& options);

/// Filesystem front-end: walks the given files/directories (collecting
/// .cc/.h/CMakeLists.txt; for a directory root "x/src" the sibling
/// "x/tests/CMakeLists.txt" is pulled in too, so the orphan-source check
/// sees the test link graph), then runs the checks as LintFiles does,
/// except that a file found under a directory argument belongs to the
/// tree that argument names: bench/e2e/src/a.cc found under "bench" is
/// bench code, not a library source. Returns false and sets *error on I/O
/// failure.
bool LintPaths(const std::vector<std::string>& paths, const Options& options,
               std::vector<Finding>* findings, std::string* error);

/// "path:line: [check] message" — the one true diagnostic format.
std::string FormatFinding(const Finding& finding);

/// Serializes findings as a SARIF 2.1.0 log (one run, one result per
/// finding) for the CI upload that renders findings as inline PR
/// annotations. Deterministic: same findings, same bytes.
std::string SarifReport(const std::vector<Finding>& findings);

/// Names of every check, for --list-checks and suppression validation.
const std::vector<std::string>& KnownChecks();

}  // namespace idxsel::lint

#endif  // IDXSEL_TOOLS_IDXSEL_LINT_LINT_H_
