# CTest script: run tcdm_run (or an example binary) with the given
# arguments and require an exact exit code — CTest alone can only
# distinguish zero from non-zero, but the CLI contract (0 ok, 1
# scenario/validation failure, 2 usage/IO) is part of what CI consumes.
#
# Variables (passed with -D):
#   TCDM_RUN  path to the binary to run
#   ARGS      space-separated argument string (may be empty)
#   EXPECTED  required exit code
#   MATCH     optional: a literal substring the combined stdout+stderr must
#             contain — pins error-message contracts (e.g. which config a
#             validation error names), not just the exit code

foreach(var TCDM_RUN EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit.cmake: missing -D${var}=...")
  endif()
endforeach()

get_filename_component(prog "${TCDM_RUN}" NAME)
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${TCDM_RUN}" ${arg_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL ${EXPECTED})
  message(FATAL_ERROR
          "${prog} ${ARGS}: expected exit code ${EXPECTED}, got ${rc}")
endif()
if(DEFINED MATCH)
  string(FIND "${out}${err}" "${MATCH}" match_pos)
  if(match_pos EQUAL -1)
    message(FATAL_ERROR
            "${prog} ${ARGS}: output does not contain \"${MATCH}\"\n"
            "--- output ---\n${out}${err}")
  endif()
endif()
message(STATUS "${prog} ${ARGS}: exit code ${rc} as expected")
