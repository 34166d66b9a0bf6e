// Golden tests for tools/idxsel_lint: each seeded violation must produce
// its exact diagnostic, each suppression must silence exactly its check,
// and the clean shapes must stay clean. The linter is itself part of the
// project's correctness story (it enforces the DESIGN.md layering DAG and
// the determinism rules CI relies on), so its checks are pinned here the
// same way selection results are pinned in regression_test.cc.

#include "idxsel_lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

namespace idxsel::lint {
namespace {

using ::testing::AllOf;
using ::testing::HasSubstr;
using ::testing::IsEmpty;

// Paths mimic a repo tree; the linter classifies by the src/tests/bench
// path segments, so synthetic absolute-ish paths behave like real ones.
FileInput Src(const std::string& rel, const std::string& content) {
  return {"repo/src/" + rel, content};
}

std::vector<std::string> Checks(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(f.check);
  return out;
}

Options NoOrphan() {
  Options options;
  options.orphan_check = false;  // loose files, no CMake context
  return options;
}

// -- L1: layering -----------------------------------------------------------

TEST(LintLayeringTest, KernelIncludingObsIsNamedViolation) {
  const auto findings = LintFiles(
      {Src("kernel/kernel.cc", "#include \"obs/obs.h\"\n")}, NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "layering");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("src/kernel"), HasSubstr("obs"),
                    HasSubstr("common/telemetry.h")));
}

TEST(LintJournalBridgeTest, KernelTouchingJournalTypesIsFlagged) {
  const auto findings = LintFiles(
      {Src("kernel/kernel.cc",
           "void f() { obs::Journal::Default(); }\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "journal-bridge");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("src/kernel"),
                    HasSubstr("telemetry::EmitJournal")));
}

TEST(LintJournalBridgeTest, SelectionIncludingJournalHeaderIsFlagged) {
  // selection may include obs/obs.h (spans) under the layering DAG, but
  // the journal header is the consumer side of the bridge — off limits.
  const auto findings = LintFiles(
      {Src("selection/heuristics.cc", "#include \"obs/journal.h\"\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings),
            std::vector<std::string>{"journal-bridge"});
  EXPECT_THAT(findings[0].message, HasSubstr("obs/journal.h"));
}

TEST(LintJournalBridgeTest, ObsAdvisorAndBridgeEmissionAreClean) {
  const auto findings = LintFiles(
      {Src("obs/journal.cc", "void g() { obs::Journal::Default(); }\n"),
       Src("advisor/advisor.cc",
           "#include \"obs/journal.h\"\n"
           "void h() { obs::JournalScope scope; }\n"),
       Src("core/recursive_selector.cc",
           "#include \"common/telemetry.h\"\n"
           "void e() { telemetry::JournalEvent ev; "
           "telemetry::EmitJournal(ev); }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintJournalBridgeTest, SuppressionSilencesIt) {
  const auto findings = LintFiles(
      {Src("exec/pool.cc",
           "// idxsel-lint: allow(journal-bridge) reason=doc example\n"
           "void f() { obs::JournalRecord r; }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

// -- L1 companion: simd confinement -----------------------------------------

TEST(LintSimdConfinementTest, IntrinsicsHeaderOutsideKernelSimdIsFlagged) {
  const auto findings = LintFiles(
      {Src("core/recursive_selector.cc", "#include <immintrin.h>\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"simd-confinement"});
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("immintrin.h"), HasSubstr("plain loop")));
}

TEST(LintSimdConfinementTest, RawIntrinsicCallIsFlagged) {
  const auto findings = LintFiles(
      {Src("costmodel/what_if.cc",
           "double f(const double* p) {\n"
           "  return _mm256_cvtsd_f64(_mm256_castpd256_pd128(v));\n"
           "}\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"simd-confinement"});
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_THAT(findings[0].message, HasSubstr("baseline flags"));
}

TEST(LintSimdConfinementTest, BenchAndTestScopesAreCoveredToo) {
  const auto findings = LintFiles(
      {{"repo/bench/bench_kernel.cc", "#include <immintrin.h>\n"},
       {"repo/tests/simd_test.cc", "void f() { __m128d v; }\n"}},
      NoOrphan());
  EXPECT_EQ(Checks(findings),
            (std::vector<std::string>{"simd-confinement", "simd-confinement"}));
}

TEST(LintSimdConfinementTest, KernelSimdFilesAreFlaggedToo) {
  // src/kernel/simd* once held the deleted dispatch layer; it is exempt
  // no longer.
  const auto findings = LintFiles(
      {Src("kernel/simd_avx2.cc",
           "__m256d f(const double* p) { return _mm256_loadu_pd(p); }\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"simd-confinement"});
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintSimdConfinementTest, SuppressionSilencesIt) {
  const auto findings = LintFiles(
      {Src("exec/pool.cc",
           "// idxsel-lint: allow(simd-confinement) reason=doc example\n"
           "void f() { __m256d v; }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintLayeringTest, ServeMayUseAdvisorButNothingUsesServe) {
  // serve sits on top of advisor (plus the transitive closure below it);
  // the edge down into serve from any pipeline module is a violation —
  // the service wraps the pipeline, never the other way around.
  const auto clean = LintFiles(
      {Src("serve/service.cc",
           "#include \"advisor/advisor.h\"\n"
           "#include \"costmodel/what_if.h\"\n"
           "#include \"workload/parser.h\"\n")},
      NoOrphan());
  EXPECT_THAT(clean, IsEmpty());

  const auto findings = LintFiles(
      {Src("advisor/advisor.cc", "#include \"serve/service.h\"\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "layering");
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("src/advisor"), HasSubstr("serve")));
}

TEST(LintLayeringTest, CommonDependsOnNothing) {
  const auto findings = LintFiles(
      {Src("common/status.cc", "#include \"workload/workload.h\"\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "layering");
  EXPECT_THAT(findings[0].message, HasSubstr("may not depend on"));
}

TEST(LintLayeringTest, AllowedEdgeAndTransitiveClosureAreClean) {
  const auto findings = LintFiles(
      {Src("core/recursive_selector.cc",
           "#include \"costmodel/what_if.h\"\n"
           "#include \"common/check.h\"\n"   // transitive dep of costmodel
           "#include \"audit/auditor.h\"\n"  // direct dep of core
           "#include \"gtest/gtest.h\"\n")},  // not a src module: ignored
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintLayeringTest, IncludeCycleIsReportedOnce) {
  const auto findings = LintFiles(
      {Src("common/a.h", "#include \"common/b.h\"\n"),
       Src("common/b.h", "#include \"common/a.h\"\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "include-cycle");
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("include cycle"), HasSubstr("common/a.h"),
                    HasSubstr("common/b.h")));
}

// -- L2: determinism --------------------------------------------------------

TEST(LintDeterminismTest, RandomDeviceFlagged) {
  const auto findings = LintFiles(
      {Src("selection/greedy.cc", "std::random_device rd;\n")}, NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "determinism-random");
}

TEST(LintDeterminismTest, WallClockFlaggedOutsideRtButNotInRt) {
  const std::string body =
      "auto t = std::chrono::system_clock::now();\n";
  EXPECT_EQ(LintFiles({Src("core/x.cc", body)}, NoOrphan()).size(), 1u);
  // rt owns deadlines, obs owns timing; both are exempt by design.
  EXPECT_THAT(LintFiles({Src("rt/deadline.cc", body)}, NoOrphan()),
              IsEmpty());
  EXPECT_THAT(LintFiles({Src("obs/tracer.cc", body)}, NoOrphan()),
              IsEmpty());
}

TEST(LintDeterminismTest, SteadyClockIsAllowedEverywhere) {
  // Monotonic time is deterministic-safe (no wall-clock reads).
  const auto findings = LintFiles(
      {Src("core/x.cc", "auto t = std::chrono::steady_clock::now();\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintDeterminismTest, UnorderedIterFlaggedInCore) {
  const auto findings = LintFiles(
      {Src("core/sel.cc",
           "std::unordered_map<int, double> benefit;\n"
           "void F() { for (const auto& [k, v] : benefit) Use(k, v); }\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "unordered-iter");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintDeterminismTest, UnorderedIterScopeIsCoreSelectionMip) {
  const std::string body =
      "std::unordered_map<int, double> m;\n"
      "void F() { for (const auto& [k, v] : m) Use(k, v); }\n";
  EXPECT_EQ(LintFiles({Src("selection/h.cc", body)}, NoOrphan()).size(), 1u);
  EXPECT_EQ(LintFiles({Src("mip/p.cc", body)}, NoOrphan()).size(), 1u);
  // Outside the selection-decision modules the pattern is fine.
  EXPECT_THAT(LintFiles({Src("costmodel/c.cc", body)}, NoOrphan()),
              IsEmpty());
}

TEST(LintDeterminismTest, VectorRangeForIsClean) {
  const auto findings = LintFiles(
      {Src("core/sel.cc",
           "std::vector<double> costs_sorted;\n"
           "void F() { for (double c : costs_sorted) Use(c); }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

// -- L3: hygiene ------------------------------------------------------------

TEST(LintHygieneTest, RawDoubleCompareOnCostFlagged) {
  const auto findings = LintFiles(
      {Src("selection/greedy.cc",
           "bool F(double a_cost, double b_cost) {\n"
           "  return a_cost == b_cost;\n"
           "}\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "double-compare");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_THAT(findings[0].message, HasSubstr("common/float_cmp.h"));
}

TEST(LintHygieneTest, FloatLiteralCompareFlagged) {
  const auto findings = LintFiles(
      {Src("cophy/x.cc", "bool F(double v) { return v != 0.0; }\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "double-compare");
}

TEST(LintHygieneTest, FloatCmpHelperFileIsExempt) {
  const auto findings = LintFiles(
      {Src("common/float_cmp.h",
           "inline bool ExactlyZero(double v) { return v == 0.0; }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintHygieneTest, IntCompareAndNullptrCompareAreClean) {
  const auto findings = LintFiles(
      {Src("core/x.cc",
           "bool F(int n, void* p) { return n == 3 && p == nullptr; }\n"
           "bool G(const Opts& o) { return o.reconfiguration == nullptr; }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintHygieneTest, CheckMacroWithoutIncludeFlagged) {
  const auto findings = LintFiles(
      {Src("engine/e.cc", "void F(int n) { IDXSEL_CHECK(n > 0); }\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "missing-check-include");
}

TEST(LintHygieneTest, CheckIncludeSatisfiedDirectlyOrTransitively) {
  // check.h itself defines the macros; both nothing to report.
  const auto direct = LintFiles(
      {Src("engine/e.cc",
           "#include \"common/check.h\"\n"
           "void F(int n) { IDXSEL_CHECK(n > 0); }\n"),
       Src("common/check.h", "#define IDXSEL_CHECK(x) ((void)0)\n")},
      NoOrphan());
  EXPECT_THAT(direct, IsEmpty());
  const auto transitive = LintFiles(
      {Src("engine/e.cc",
           "#include \"engine/e.h\"\n"
           "void F(int n) { IDXSEL_DCHECK_GE(n, 0); }\n"),
       Src("engine/e.h", "#include \"common/check.h\"\n"),
       Src("common/check.h", "#define IDXSEL_DCHECK_GE(a, b) ((void)0)\n")},
      NoOrphan());
  EXPECT_THAT(transitive, IsEmpty());
}

TEST(LintOrphanTest, UnreferencedSourceAndLibraryFlagged) {
  const std::vector<FileInput> files = {
      Src("engine/used.cc", "int x;\n"),
      Src("engine/orphan.cc", "int y;\n"),
      {"repo/src/engine/CMakeLists.txt",
       "add_library(idxsel_engine used.cc)\n"},
      {"repo/tests/CMakeLists.txt",
       "target_link_libraries(engine_test PRIVATE idxsel_other)\n"},
  };
  const auto findings = LintFiles(files, Options{});
  const auto checks = Checks(findings);
  // orphan.cc is not compiled; idxsel_engine is not linked by any test.
  EXPECT_EQ(std::count(checks.begin(), checks.end(), "orphan-source"), 2);
}

TEST(LintOrphanTest, BenchPackageSrcDirectoryIsBenchCode) {
  // A bench package keeps its sources in its own src/ directory and
  // compiles them from the CMakeLists.txt one level up. Found under the
  // `bench` root, bench/pkg/src/x.cc is bench code: the library rule
  // (every src/ .cc named by its directory's CMakeLists.txt) must not
  // fire, while the bench-wide double-compare rule still does.
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "lint_bench_pkg";
  fs::remove_all(root);
  const auto write = [&root](const std::string& rel, const std::string& body) {
    const fs::path path = root / rel;
    fs::create_directories(path.parent_path());
    std::ofstream(path) << body;
  };
  write("src/engine/used.cc", "int x;\n");
  write("src/engine/CMakeLists.txt", "add_library(idxsel_engine used.cc)\n");
  write("tests/CMakeLists.txt",
        "target_link_libraries(engine_test PRIVATE idxsel_engine)\n");
  write("bench/pkg/CMakeLists.txt", "add_executable(x src/x.cc)\n");
  write("bench/pkg/src/x.cc", "bool F(double v) { return v == 0.0; }\n");

  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(LintPaths({(root / "src").string(), (root / "tests").string(),
                         (root / "bench").string()},
                        Options{}, &findings, &error))
      << error;
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"double-compare"});
  EXPECT_EQ(findings[0].path, (root / "bench/pkg/src/x.cc").string());
  EXPECT_EQ(findings[0].line, 1);
  fs::remove_all(root);
}

// -- L4: concurrency contracts ----------------------------------------------

TEST(LintLockOrderTest, TwoMutexCycleAcrossFilesIsFlagged) {
  // The canonical deadlock: two TUs of one class nest the same pair of
  // locks in opposite orders. The graph is global, so neither file alone
  // is a finding — the cycle only closes once both are scanned.
  const auto findings = LintFiles(
      {Src("shard/select.cc",
           "void ShardedSelector::Rebalance() {\n"
           "  common::MutexLock lock(&budget_mu_);\n"
           "  common::MutexLock inner(&journal_mu_);\n"
           "}\n"),
       Src("shard/report.cc",
           "void ShardedSelector::Report() {\n"
           "  common::MutexLock lock(&journal_mu_);\n"
           "  common::MutexLock inner(&budget_mu_);\n"
           "}\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"lock-order"});
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("cycle"), HasSubstr("deadlock"),
                    HasSubstr("ShardedSelector::budget_mu_"),
                    HasSubstr("ShardedSelector::journal_mu_")));
}

TEST(LintLockOrderTest, ReacquiringAHeldLockIsFlagged) {
  const auto findings = LintFiles(
      {Src("exec/pool.cc",
           "void Pool::Tick() {\n"
           "  common::MutexLock lock(&mu_);\n"
           "  {\n"
           "    common::MutexLock again(&mu_);\n"
           "  }\n"
           "}\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"lock-order"});
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_THAT(findings[0].message, HasSubstr("already held"));
}

TEST(LintLockOrderTest, ConsistentOrderAndSequentialScopesAreClean) {
  const auto findings = LintFiles(
      {Src("shard/select.cc",
           // Same nesting order everywhere: an edge, never a cycle.
           "void ShardedSelector::Rebalance() {\n"
           "  common::MutexLock lock(&budget_mu_);\n"
           "  common::MutexLock inner(&journal_mu_);\n"
           "}\n"
           "void ShardedSelector::Report() {\n"
           "  common::MutexLock lock(&budget_mu_);\n"
           "  common::MutexLock inner(&journal_mu_);\n"
           "}\n"
           // Opposite textual order but never held together: no edge.
           "void ShardedSelector::Drain() {\n"
           "  { common::MutexLock lock(&journal_mu_); }\n"
           "  { common::MutexLock lock(&budget_mu_); }\n"
           "}\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintLockOrderTest, SuppressionSilencesIt) {
  const auto findings = LintFiles(
      {Src("exec/pool.cc",
           "void Pool::Tick() {\n"
           "  common::MutexLock lock(&mu_);\n"
           "  // idxsel-lint: allow(lock-order) reason=golden doc example\n"
           "  common::MutexLock again(&mu_);\n"
           "}\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintGuardedFieldTest, MutableMemberWithoutAnnotationIsFlagged) {
  const auto findings = LintFiles(
      {Src("costmodel/cache.h",
           "class Cache {\n"
           " private:\n"
           "  mutable unsigned long hits_ = 0;\n"
           "};\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"guarded-field"});
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("mutable"), HasSubstr("IDXSEL_GUARDED_BY")));
}

TEST(LintGuardedFieldTest, EngineModuleIsChecked) {
  const auto findings = LintFiles(
      {Src("engine/measured_cost.h",
           "class Source {\n"
           " private:\n"
           "  mutable unsigned long sink_ = 0;\n"
           "};\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"guarded-field"});
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_THAT(findings[0].message, HasSubstr("src/engine"));
}

TEST(LintGuardedFieldTest, MultiLineMutableMemberIsReadToItsSemicolon) {
  // The unannotated three-line shape is flagged at its first line; the
  // same member with the annotation on its last line is clean.
  const auto findings = LintFiles(
      {Src("engine/measured_cost.h",
           "class Source {\n"
           " private:\n"
           "  mutable std::unordered_map<costmodel::Index, CompositeIndex,\n"
           "                             costmodel::IndexHash>\n"
           "      indexes_;\n"
           "};\n"),
       Src("engine/guarded.h",
           "class Guarded {\n"
           " private:\n"
           "  mutable common::Mutex mu_;\n"
           "  mutable std::unordered_map<costmodel::Index, CompositeIndex,\n"
           "                             costmodel::IndexHash>\n"
           "      indexes_ IDXSEL_GUARDED_BY(mu_);\n"
           "};\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"guarded-field"});
  EXPECT_EQ(findings[0].path, "repo/src/engine/measured_cost.h");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintGuardedFieldTest, UnguardedMutexMemberIsFlagged) {
  const auto findings = LintFiles(
      {Src("exec/pool.h",
           "class Pool {\n"
           " private:\n"
           "  common::Mutex mu_;\n"
           "  int n_ = 0;\n"
           "};\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"guarded-field"});
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("mu_"), HasSubstr("guards no")));
}

TEST(LintGuardedFieldTest, AnnotatedAndAtomicMembersAreClean) {
  const auto findings = LintFiles(
      {Src("exec/pool.h",
           "class Pool {\n"
           " private:\n"
           "  common::Mutex mu_;\n"
           "  mutable unsigned long hits_ IDXSEL_GUARDED_BY(mu_) = 0;\n"
           "  mutable std::atomic<unsigned long> misses_{0};\n"
           "};\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintGuardedFieldTest, MutableOutsideConcurrencyModulesIsClean) {
  // workload is single-threaded by contract (doc/parallelism.md); its
  // memoization members don't need guard annotations.
  const auto findings = LintFiles(
      {Src("workload/parser.h",
           "class Parser {\n"
           "  mutable unsigned long bytes_ = 0;\n"
           "};\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintGuardedFieldTest, SuppressionSilencesIt) {
  const auto findings = LintFiles(
      {Src("exec/pool.h",
           "class Pool {\n"
           "  // idxsel-lint: allow(guarded-field) reason=wakeup ordering "
           "only, no guarded state\n"
           "  common::Mutex sleep_mu_;\n"
           "};\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintAtomicOrderingTest, DefaultedMethodCallIsFlagged) {
  const auto findings = LintFiles(
      {Src("kernel/epoch.cc",
           "std::atomic<int> epoch{0};\n"
           "void Bump() { epoch.store(1); }\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"atomic-ordering"});
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_THAT(findings[0].message,
              AllOf(HasSubstr("memory_order"), HasSubstr("seq_cst")));
}

TEST(LintAtomicOrderingTest, OperatorFormIsFlagged) {
  const auto findings = LintFiles(
      {Src("exec/counters.cc",
           "std::atomic<unsigned long> tasks{0};\n"
           "void Done() { ++tasks; }\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"atomic-ordering"});
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_THAT(findings[0].message, HasSubstr("in disguise"));
}

TEST(LintAtomicOrderingTest, ExplicitOrderIsCleanEvenAcrossLines) {
  const auto findings = LintFiles(
      {Src("kernel/epoch.cc",
           "std::atomic<int> epoch{0};\n"
           "void Bump() {\n"
           "  epoch.store(1,\n"
           "              std::memory_order_release);\n"
           "}\n"
           "int Read() { return epoch.load(std::memory_order_acquire); }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintAtomicOrderingTest, ScopeIsKernelExecCommon) {
  // Cold modules may take the seq_cst default; the fence cost is noise
  // there and the check would only breed reflexive `relaxed`.
  const auto findings = LintFiles(
      {Src("serve/service.cc",
           "std::atomic<int> state{0};\n"
           "void Set() { state.store(1); }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintAtomicOrderingTest, SuppressionSilencesIt) {
  const auto findings = LintFiles(
      {Src("kernel/epoch.cc",
           "std::atomic<int> epoch{0};\n"
           "// idxsel-lint: allow(atomic-ordering) reason=cold init path\n"
           "void Bump() { epoch.store(1); }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintPointerOrderTest, AddressAsIntegerIsFlagged) {
  const auto findings = LintFiles(
      {Src("core/sel.cc",
           "bool Less(const Index* a, const Index* b) {\n"
           "  return reinterpret_cast<uintptr_t>(a) < "
           "reinterpret_cast<uintptr_t>(b);\n"
           "}\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"pointer-order"});
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_THAT(findings[0].message, HasSubstr("run-dependent"));
}

TEST(LintPointerOrderTest, StdLessOverPointerIsFlagged) {
  const auto findings = LintFiles(
      {Src("selection/greedy.cc",
           "std::map<Index*, double, std::less<Index*>> benefit;\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"pointer-order"});
  EXPECT_THAT(findings[0].message, HasSubstr("orders by address"));
}

TEST(LintPointerOrderTest, RelationalGetCompareIsFlagged) {
  const auto findings = LintFiles(
      {Src("shard/shard.cc",
           "bool Before(const Part& a, const Part& b) {\n"
           "  return a.table.get() < b.table.get();\n"
           "}\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"pointer-order"});
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintPointerOrderTest, StableKeysStreamsAndOtherModulesAreClean) {
  const auto findings = LintFiles(
      {Src("core/sel.cc",
           // Dense-id ordering is the sanctioned replacement.
           "bool Less(const Index& a, const Index& b) {\n"
           "  return a.id() < b.id();\n"
           "}\n"
           // Shifts are not comparisons.
           "void Dump(std::ostream& os, const Part& p) {\n"
           "  os << p.table.get() << 1;\n"
           "}\n"),
       // obs may hash addresses for trace correlation; it never feeds a
       // selection decision.
       Src("obs/tracer.cc",
           "auto key = reinterpret_cast<uintptr_t>(span);\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintPointerOrderTest, SuppressionSilencesIt) {
  const auto findings = LintFiles(
      {Src("core/sel.cc",
           "// idxsel-lint: allow(pointer-order) reason=golden doc example\n"
           "auto k = reinterpret_cast<uintptr_t>(p);\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

// -- Suppressions -----------------------------------------------------------

TEST(LintSuppressionTest, SameLineSuppressionWithReasonSilences) {
  const auto findings = LintFiles(
      {Src("core/sel.cc",
           "std::unordered_map<int, double> m;\n"
           "void F() { for (const auto& [k, v] : m) Keys(k); }  "
           "// idxsel-lint: allow(unordered-iter) reason=keys re-sorted "
           "below\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintSuppressionTest, PrecedingLineSuppressionSilences) {
  const auto findings = LintFiles(
      {Src("cophy/x.cc",
           "// idxsel-lint: allow(double-compare) reason=exact sparsity "
           "test\n"
           "bool F(double v) { return v == 0.0; }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintSuppressionTest, MissingReasonIsItsOwnFindingAndDoesNotSilence) {
  const auto findings = LintFiles(
      {Src("cophy/x.cc",
           "bool F(double v) { return v == 0.0; }  "
           "// idxsel-lint: allow(double-compare)\n")},
      NoOrphan());
  // A reasonless suppression suppresses nothing: the original finding
  // survives alongside the suppression-missing-reason report.
  const auto checks = Checks(findings);
  EXPECT_THAT(checks, ::testing::Contains("suppression-missing-reason"));
  EXPECT_THAT(checks, ::testing::Contains("double-compare"));
  for (const Finding& f : findings) {
    if (f.check == "suppression-missing-reason") {
      EXPECT_THAT(f.message, HasSubstr("reason="));
    }
  }
}

TEST(LintSuppressionTest, WrongCheckNameDoesNotSilence) {
  const auto findings = LintFiles(
      {Src("cophy/x.cc",
           "bool F(double v) { return v == 0.0; }  "
           "// idxsel-lint: allow(unordered-iter) reason=wrong check\n")},
      NoOrphan());
  const auto checks = Checks(findings);
  // The real finding survives; the mismatched suppression is fine per se
  // (unordered-iter is a known check, it just doesn't fire here).
  EXPECT_THAT(checks, ::testing::Contains("double-compare"));
}

TEST(LintSuppressionTest, UnknownCheckNameFlagged) {
  const auto findings = LintFiles(
      {Src("core/x.cc",
           "// idxsel-lint: allow(no-such-check) reason=typo\n"
           "int y;\n")},
      NoOrphan());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "unknown-check");
}

TEST(LintSuppressionTest, WrappedReasonInCommentBlockStillSilences) {
  // A suppression whose reason wraps onto a second comment line attaches
  // through the whole contiguous comment block above the finding.
  const auto findings = LintFiles(
      {Src("cophy/x.cc",
           "// idxsel-lint: allow(double-compare) reason=exact sparsity\n"
           "// test, the solver zeroes eliminated columns bit-exactly\n"
           "bool F(double v) { return v == 0.0; }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintSuppressionTest, BlankLineBreaksTheCommentBlock) {
  const auto findings = LintFiles(
      {Src("cophy/x.cc",
           "// idxsel-lint: allow(double-compare) reason=stranded comment\n"
           "\n"
           "bool F(double v) { return v == 0.0; }\n")},
      NoOrphan());
  const auto checks = Checks(findings);
  // Detached from its finding, the suppression silences nothing (and is
  // therefore itself reported as stale).
  EXPECT_THAT(checks, ::testing::Contains("double-compare"));
  EXPECT_THAT(checks, ::testing::Contains("stale-suppression"));
}

TEST(LintSuppressionTest, ReasonedSuppressionThatSilencesNothingIsStale) {
  const auto findings = LintFiles(
      {Src("core/x.cc",
           "// idxsel-lint: allow(pointer-order) reason=needed before the "
           "refactor\n"
           "int F(int v) { return v + 1; }\n")},
      NoOrphan());
  ASSERT_EQ(Checks(findings), std::vector<std::string>{"stale-suppression"});
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_THAT(findings[0].message, HasSubstr("no longer suppresses"));
}

TEST(LintSuppressionTest, UsedSuppressionIsNotStale) {
  const auto findings = LintFiles(
      {Src("cophy/x.cc",
           "// idxsel-lint: allow(double-compare) reason=exact sparsity\n"
           "bool F(double v) { return v == 0.0; }\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

// -- Options::skip and SARIF output ------------------------------------------

TEST(LintSkipTest, SkippedCheckDropsItsFindings) {
  Options options = NoOrphan();
  options.skip = {"double-compare"};
  const auto findings = LintFiles(
      {Src("cophy/x.cc", "bool F(double v) { return v == 0.0; }\n")}, options);
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintSkipTest, SuppressionOfSkippedCheckIsNotStale) {
  // A --skip run must not demand deleting suppressions the full run still
  // needs; staleness is only judged for checks that actually ran.
  Options options = NoOrphan();
  options.skip = {"double-compare"};
  const auto findings = LintFiles(
      {Src("cophy/x.cc",
           "// idxsel-lint: allow(double-compare) reason=exact sparsity\n"
           "bool F(double v) { return v == 0.0; }\n")},
      options);
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintSarifTest, ReportCarriesRuleMessageAndLocation) {
  const std::vector<Finding> findings = {
      {"src/core/x.cc", 12, "pointer-order", "orders by \"address\""}};
  const std::string sarif = SarifReport(findings);
  EXPECT_THAT(
      sarif,
      AllOf(HasSubstr("\"version\": \"2.1.0\""),
            HasSubstr("\"name\": \"idxsel_lint\""),
            HasSubstr("\"ruleId\": \"pointer-order\""),
            HasSubstr("\"uri\": \"src/core/x.cc\""),
            HasSubstr("\"startLine\": 12"),
            // JSON string escaping survives the quoted message.
            HasSubstr("orders by \\\"address\\\"")));
}

TEST(LintSarifTest, EmptyRunIsStillAValidUpload) {
  const std::string sarif = SarifReport({});
  EXPECT_THAT(sarif, AllOf(HasSubstr("\"version\": \"2.1.0\""),
                           HasSubstr("\"results\": []")));
}

// -- Tokenizer robustness ---------------------------------------------------

TEST(LintTokenizerTest, CommentsAndStringsDoNotTriggerChecks) {
  const auto findings = LintFiles(
      {Src("core/x.cc",
           "// std::random_device in a comment is fine\n"
           "/* rand() in a block comment too */\n"
           "const char* s = \"system_clock is just a string\";\n"
           "const char* r = R\"(rand() inside raw string)\";\n")},
      NoOrphan());
  EXPECT_THAT(findings, IsEmpty());
}

TEST(LintTokenizerTest, FormatFindingIsStable) {
  const Finding f{"src/core/x.cc", 12, "layering", "boom"};
  EXPECT_EQ(FormatFinding(f), "src/core/x.cc:12: [layering] boom");
}

TEST(LintTokenizerTest, KnownChecksCoverEveryDocumentedName) {
  const auto& checks = KnownChecks();
  for (const char* name :
       {"layering", "include-cycle", "determinism-random",
        "determinism-clock", "unordered-iter", "double-compare",
        "missing-check-include", "orphan-source", "lock-order",
        "guarded-field", "atomic-ordering", "pointer-order",
        "suppression-missing-reason", "unknown-check",
        "stale-suppression"}) {
    EXPECT_THAT(checks, ::testing::Contains(std::string(name))) << name;
  }
}

}  // namespace
}  // namespace idxsel::lint
