# Runs fio_sim with --json and checks the result parses as JSON and carries
# the metrics delta: metrics.children.image.counters.writes must exist and
# be at least the top-level write_ops (every measured write completed in
# the window). string(JSON) needs CMake >= 3.19.
#
#   cmake -DFIO_SIM=path/to/fio_sim -DJSON_OUT=out.json \
#         "-DFIO_SIM_ARGS=--rw=randwrite;--ops=64" -P tests/fio_sim_json.cmake
cmake_minimum_required(VERSION 3.19)
file(REMOVE ${JSON_OUT})
execute_process(COMMAND ${FIO_SIM} ${FIO_SIM_ARGS} --json=${JSON_OUT}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fio_sim ended with '${rc}', want 0:\n${out}")
endif()
file(READ ${JSON_OUT} json)
string(JSON write_ops ERROR_VARIABLE err GET "${json}" write_ops)
if(err)
  message(FATAL_ERROR "no write_ops in ${JSON_OUT}: ${err}")
endif()
string(JSON writes ERROR_VARIABLE err
       GET "${json}" metrics children image counters writes)
if(err)
  message(FATAL_ERROR
          "no metrics.children.image.counters.writes in ${JSON_OUT}: ${err}")
endif()
if(write_ops EQUAL 0 OR writes LESS write_ops)
  message(FATAL_ERROR "image.writes=${writes} write_ops=${write_ops}: the "
                      "window delta must cover every measured write")
endif()
message(STATUS "image.writes=${writes} >= write_ops=${write_ops}")
