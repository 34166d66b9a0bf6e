# Benchmark harnesses — one binary per paper table/figure plus ablations.
# Included from the top-level CMakeLists so binaries land in build/bench/
# with nothing else next to them.

# Provenance of every bench JSON sidecar (bench_common.h
# SidecarProvenanceJson): the full git SHA, a dirty flag and the build
# type, rewritten on every build by the script bench_e2e uses, so a
# sidecar names the tree its binary was built from. Only
# bench_provenance.cc includes the generated header; a new SHA or dirty
# flag recompiles that one file.
if(CMAKE_BUILD_TYPE)
  set(IDXSEL_SIDECAR_BUILD_TYPE "${CMAKE_BUILD_TYPE}")
else()
  set(IDXSEL_SIDECAR_BUILD_TYPE "unspecified")
endif()
set(IDXSEL_BENCH_PROVENANCE
  "${CMAKE_BINARY_DIR}/generated/bench/provenance.h")
add_custom_target(idxsel_bench_provenance_header
  COMMAND "${CMAKE_COMMAND}"
    "-DROOT=${CMAKE_SOURCE_DIR}"
    "-DOUT=${IDXSEL_BENCH_PROVENANCE}"
    "-DBUILD_TYPE=${IDXSEL_SIDECAR_BUILD_TYPE}"
    "-DCOMPILER=${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
    -P "${CMAKE_SOURCE_DIR}/bench/e2e/provenance.cmake"
  BYPRODUCTS "${IDXSEL_BENCH_PROVENANCE}"
  VERBATIM)
add_library(idxsel_bench_provenance STATIC bench/bench_provenance.cc)
add_dependencies(idxsel_bench_provenance idxsel_bench_provenance_header)
target_include_directories(idxsel_bench_provenance PRIVATE
  "${CMAKE_BINARY_DIR}/generated/bench")
target_link_libraries(idxsel_bench_provenance PRIVATE idxsel_build_flags)

function(idxsel_bench name)
  add_executable(${name} bench/${name}.cc)
  target_link_libraries(${name} PRIVATE
    idxsel_common idxsel_obs idxsel_exec idxsel_workload idxsel_costmodel
    idxsel_rt
    idxsel_candidates idxsel_mip idxsel_cophy idxsel_selection
    idxsel_core
    idxsel_engine idxsel_frontier idxsel_advisor idxsel_analysis
    idxsel_bench_provenance)
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
