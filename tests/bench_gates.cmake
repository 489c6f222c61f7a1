# Runs one gated bench with --quick in WORK_DIR, keeps its output there as
# bench-<NAME>.txt, and checks its verdict: exit 0, and bench-<NAME>.json
# parses with a true top-level pass and at least one gate, each carrying a
# boolean pass. string(JSON) needs CMake >= 3.19.
#
#   cmake -DBENCH=path/to/bench_trim -DNAME=trim -DWORK_DIR=out/trim \
#         -P tests/bench_gates.cmake
cmake_minimum_required(VERSION 3.19)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${BENCH} --quick
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
file(WRITE ${WORK_DIR}/bench-${NAME}.txt "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --quick ended with '${rc}', want 0:\n${out}")
endif()
file(READ ${WORK_DIR}/bench-${NAME}.json json)
string(JSON pass ERROR_VARIABLE err GET "${json}" pass)
if(err OR NOT pass)
  message(FATAL_ERROR "bench-${NAME}.json: pass is not true:\n${json}")
endif()
string(JSON gates ERROR_VARIABLE err LENGTH "${json}" gates)
if(err OR gates EQUAL 0)
  message(FATAL_ERROR "bench-${NAME}.json: no gates:\n${json}")
endif()
math(EXPR last "${gates} - 1")
foreach(i RANGE ${last})
  string(JSON gate MEMBER "${json}" gates ${i})
  string(JSON type ERROR_VARIABLE err TYPE "${json}" gates ${gate} pass)
  if(err OR NOT type STREQUAL "BOOLEAN")
    message(FATAL_ERROR "bench-${NAME}.json: gate ${gate} has no boolean "
                        "pass:\n${json}")
  endif()
endforeach()
message(STATUS "bench-${NAME}.json: ${gates} gates, pass")
