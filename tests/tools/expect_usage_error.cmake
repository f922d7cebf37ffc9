# Run `${CLI} net ${FLAG}` and pass only when it exits with code 2 and
# reports the bad flag value on stderr.
#
#   cmake -DCLI=<braidio_cli> -DFLAG=--nodes=-5 -P expect_usage_error.cmake
execute_process(COMMAND "${CLI}" net "${FLAG}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "^bad --[a-z]+ value: ")
  message(FATAL_ERROR "braidio_cli net ${FLAG}: exit ${rc}, want 2\n${err}")
endif()
