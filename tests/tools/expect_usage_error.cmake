# Run `${CLI} ${ARGS}` and pass only when it exits with code 2 and
# reports the bad value on stderr. ARGS is the whole argument list.
#
#   cmake -DCLI=<braidio_cli> "-DARGS=net;--nodes=-5" -P expect_usage_error.cmake
execute_process(COMMAND "${CLI}" ${ARGS}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "^bad [-a-z_0-9]+ value: ")
  message(FATAL_ERROR "braidio_cli ${ARGS}: exit ${rc}, want 2\n${err}")
endif()
