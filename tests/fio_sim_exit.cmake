# Runs fio_sim with the arguments in FIO_SIM_ARGS (a ;-list) and fails
# unless it ends with exit status 0 or 1. A signal (a crash while tearing
# down the simulated cluster, say) reports as a non-numeric result and
# fails the test.
#
#   cmake -DFIO_SIM=path/to/fio_sim "-DFIO_SIM_ARGS=--ops=1;--qd=32" \
#         -P tests/fio_sim_exit.cmake
execute_process(COMMAND ${FIO_SIM} ${FIO_SIM_ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc MATCHES "^[01]$")
  message(FATAL_ERROR "fio_sim ended with '${rc}', want exit 0 or 1:\n${out}")
endif()
message(STATUS "fio_sim exit ${rc}")
