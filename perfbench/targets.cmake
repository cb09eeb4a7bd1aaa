# Benchmark executables, defined inside the placer's own CMake tree (see
# hook.cmake). They link only the placer's public library targets.
set(PERFBENCH_SRC ${CMAKE_CURRENT_LIST_DIR}/src)

add_library(perfbench_common STATIC ${PERFBENCH_SRC}/bench_common.cpp)
target_link_libraries(perfbench_common PUBLIC puffer_core)
target_compile_definitions(perfbench_common PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

# The timed workloads (place / explore / serve client).
add_executable(perfbench_run ${PERFBENCH_SRC}/perfbench_run.cpp)
target_link_libraries(perfbench_run PRIVATE
  perfbench_common puffer_orchestrate puffer_serve)

# The traced place program rebuilds PufferFlow::run() from the layers'
# public calls. It is a target of its own so that an API change in a
# layer breaks only the traced run, never the timed workloads.
add_executable(perfbench_trace_place ${PERFBENCH_SRC}/trace_place.cpp)
target_link_libraries(perfbench_trace_place PRIVATE
  perfbench_common puffer_serve)

set_target_properties(perfbench_run perfbench_trace_place PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
