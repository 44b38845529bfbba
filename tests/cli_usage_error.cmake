# Runs `dfcnn <ARGS>` (ARGS is a '|'-separated argument list) and requires the
# usage-error contract: exit code 2 (never a signal or a library error) and a
# one-line message containing EXPECT.
#
#   cmake -DDFCNN=<path to dfcnn> "-DARGS=simulate|usps|-5" \
#         "-DEXPECT=batch expects a non-negative integer" -P cli_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(
  COMMAND "${DFCNN}" ${args}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "dfcnn ${args}: expected exit 2, got '${code}'\n${err}")
endif()
string(FIND "${err}" "error: ${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "dfcnn ${args}: expected 'error: ${EXPECT}', got '${err}'")
endif()
string(STRIP "${err}" line)
string(FIND "${line}" "\n" newline)
if(NOT newline EQUAL -1)
  message(FATAL_ERROR "dfcnn ${args}: message is not one line:\n${err}")
endif()
