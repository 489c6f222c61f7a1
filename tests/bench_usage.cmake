# Runs BENCH with ARGS (a ;-list) and fails unless it exits with status 2,
# the usage error every bench gives an argument it does not know.
#
#   cmake -DBENCH=path/to/bench_sector_model -DARGS=--qiuck \
#         -P tests/bench_usage.cmake
execute_process(COMMAND ${BENCH} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARGS} ended with '${rc}', want 2:\n${out}")
endif()
message(STATUS "${BENCH} ${ARGS}: exit 2")
