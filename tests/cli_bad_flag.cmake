# Runs `dfcnn cluster usps <FLAG> <VALUE>` and requires the usage-error
# contract for a bad numeric flag: exit code 2 and a one-line message that
# names the flag and echoes the value.
#
#   cmake -DDFCNN=<path to dfcnn> -DFLAG=--nodes -DVALUE=abc -P cli_bad_flag.cmake
execute_process(
  COMMAND "${DFCNN}" cluster usps "${FLAG}" "${VALUE}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "dfcnn cluster ${FLAG} ${VALUE}: expected exit 2, got '${code}'\n${err}")
endif()
string(FIND "${err}" "error: ${FLAG} expects a non-negative" at)
string(FIND "${err}" "got '${VALUE}'" echoed)
if(at EQUAL -1 OR echoed EQUAL -1)
  message(FATAL_ERROR "dfcnn cluster ${FLAG} ${VALUE}: unexpected message '${err}'")
endif()
string(STRIP "${err}" line)
string(FIND "${line}" "\n" newline)
if(NOT newline EQUAL -1)
  message(FATAL_ERROR "dfcnn cluster ${FLAG} ${VALUE}: message is not one line:\n${err}")
endif()
