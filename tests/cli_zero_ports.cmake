# Runs `dfcnn <CMD> <DESIGN>` on a design whose first conv has IN_PORTS = 0
# and requires a structured error: exit code 1 (never a signal) and a
# one-line message naming the DF102 port-count diagnostic.
#
#   cmake -DDFCNN=<path to dfcnn> -DCMD=check -DDESIGN=zero_in_ports.dfcnn -P cli_zero_ports.cmake
execute_process(
  COMMAND "${DFCNN}" "${CMD}" "${DESIGN}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "dfcnn ${CMD} ${DESIGN}: expected exit 1, got '${code}'\n${err}")
endif()
string(FIND "${err}" "error DF102 at L0" at)
if(at EQUAL -1)
  message(FATAL_ERROR "dfcnn ${CMD} ${DESIGN}: message does not name DF102: '${err}'")
endif()
string(STRIP "${err}" line)
string(FIND "${line}" "\n" newline)
if(NOT newline EQUAL -1)
  message(FATAL_ERROR "dfcnn ${CMD} ${DESIGN}: message is not one line:\n${err}")
endif()
