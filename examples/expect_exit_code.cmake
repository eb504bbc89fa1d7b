# Runs CLI with the comma-separated ARGS and fails unless it exits with
# code EXPECTED — a crash or a silent success both fail the test.
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "expected exit ${EXPECTED}, got '${rc}': ${err}")
endif()
