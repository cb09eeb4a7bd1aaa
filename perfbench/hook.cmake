# Injected into the placer's top-level project() call by run.py
# (-DCMAKE_PROJECT_puffer_INCLUDE=<this file>). It defers the benchmark
# targets until the whole placer tree is configured, so they see the
# placer's libraries, C++ standard and compile options exactly as the
# repository's own targets do.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${PERFBENCH_DIR}/targets.cmake)
