# Benchmark harnesses — one binary per paper table/figure plus ablations.
# Included from the top-level CMakeLists so binaries land in build/bench/
# with nothing else next to them.

# Provenance baked into every bench binary so the JSON sidecars are
# self-describing across checkouts (bench_common.h SidecarProvenanceJson).
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY "${CMAKE_SOURCE_DIR}"
  OUTPUT_VARIABLE IDXSEL_GIT_SHA
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT IDXSEL_GIT_SHA)
  set(IDXSEL_GIT_SHA "unknown")
endif()
if(CMAKE_BUILD_TYPE)
  set(IDXSEL_SIDECAR_BUILD_TYPE "${CMAKE_BUILD_TYPE}")
else()
  set(IDXSEL_SIDECAR_BUILD_TYPE "unspecified")
endif()

function(idxsel_bench name)
  add_executable(${name} bench/${name}.cc)
  target_link_libraries(${name} PRIVATE
    idxsel_common idxsel_obs idxsel_exec idxsel_workload idxsel_costmodel
    idxsel_rt
    idxsel_candidates idxsel_mip idxsel_cophy idxsel_selection
    idxsel_core
    idxsel_engine idxsel_frontier idxsel_advisor idxsel_analysis)
  target_compile_definitions(${name} PRIVATE
    IDXSEL_GIT_SHA="${IDXSEL_GIT_SHA}"
    IDXSEL_BUILD_TYPE="${IDXSEL_SIDECAR_BUILD_TYPE}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/bench")
endfunction()

function(idxsel_gbench name)
  idxsel_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()

idxsel_bench(bench_table1)
idxsel_bench(bench_fig2)
idxsel_bench(bench_fig3)
idxsel_bench(bench_fig4)
idxsel_bench(bench_fig5)
idxsel_bench(bench_fig6)
idxsel_bench(bench_whatif_calls)
idxsel_bench(bench_kernel)
idxsel_bench(bench_extensions)
idxsel_bench(bench_reconfiguration)
idxsel_bench(bench_compression)
idxsel_bench(bench_updates)
idxsel_bench(bench_shuffle)
idxsel_bench(bench_robustness)
idxsel_bench(bench_parallel)
idxsel_bench(bench_trajectory)
idxsel_bench(bench_serve)
# These two drive the long-running AdvisorService; the base link list
# stops at the advisor layer.
target_link_libraries(bench_serve PRIVATE idxsel_serve)
target_link_libraries(bench_trajectory PRIVATE idxsel_serve)
idxsel_gbench(bench_engine_micro)
idxsel_gbench(bench_solver_micro)
idxsel_gbench(bench_obs_micro)
idxsel_gbench(bench_deadline)
