# Runs `dfcnn <ARGS>` (ARGS is a '|'-separated argument list) and requires the
# usage-error contract: exit code 2 (never a signal or a library error) and a
# one-line message containing EXPECT. CODE overrides the expected exit code
# for tools that give other error classes their own code.
#
#   cmake -DDFCNN=<path to dfcnn> "-DARGS=simulate|usps|-5" \
#         "-DEXPECT=batch expects a non-negative integer" -P cli_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
if(NOT DEFINED CODE)
  set(CODE 2)
endif()
execute_process(
  COMMAND "${DFCNN}" ${args}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL "${CODE}")
  message(FATAL_ERROR "dfcnn ${args}: expected exit ${CODE}, got '${code}'\n${err}")
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
