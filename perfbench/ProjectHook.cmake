# The benchmark driver's build, as part of the repository's own CMake
# project. run.py configures that project with
#   -DCMAKE_PROJECT_omp_gpu_codesign_INCLUDE=<this file>
# which CMake includes at the project() call, before the library targets
# exist. The driver target is therefore defined by a deferred call, once
# the top-level CMakeLists.txt has been processed: it then gets the
# project's compile options and links the library targets themselves, so
# CMake rebuilds it whenever a library changes.
set(PERFBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_driver)
  find_package(Threads REQUIRED)
  set(Src "${PERFBENCH_SOURCE_DIR}/src")
  add_executable(perfbench
    ${Src}/Common.cpp
    ${Src}/Probes.cpp
    ${Src}/Tracing.cpp
    ${Src}/Workloads.cpp
    ${Src}/main.cpp
  )
  target_compile_definitions(perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PERFBENCH_SANITIZE="${CODESIGN_SANITIZE}")
  target_link_libraries(perfbench PRIVATE
    codesign_apps codesign_service Threads::Threads ${CMAKE_DL_LIBS})
endfunction()

cmake_language(DEFER CALL perfbench_add_driver)
