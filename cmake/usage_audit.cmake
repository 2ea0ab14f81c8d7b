# CTest script: the usage text is the CLI's documented contract surface.
# This audit runs tcdm_run with no arguments (which prints usage and exits
# 2) and requires every subcommand, every flag the parser accepts, and
# every --stepping mode value to appear in that output — so a flag added
# to the parser without documentation, or renamed in only one place, fails
# CI instead of drifting silently.
#
# Variables (passed with -D):
#   TCDM_RUN  path to the tcdm_run binary

if(NOT DEFINED TCDM_RUN)
  message(FATAL_ERROR "usage_audit.cmake: missing -DTCDM_RUN=...")
endif()

execute_process(
  COMMAND "${TCDM_RUN}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "tcdm_run with no arguments: expected exit code 2, got ${rc}")
endif()
set(usage "${out}${err}")

# One spelling per flag: the flag tables in tools/tcdm_run.cpp accept no
# alias (`--name=V` is the same flag as `--name V`), so each flag
# token is one table row.
set(expected_tokens
  # subcommands (check is the regression gate; it takes no flags)
  list run emit validate gen explore check
  # common flags (list/run/emit/explore)
  -j --stepping --file --no-builtin
  # emit
  --out --all
  # gen
  --seed --count
  # explore
  --area-cap --budget --cache --no-prune --report
  # --stepping mode values
  event cycle check
  # system-layer scenario surface: the scale-out block and its barrier kinds
  system barrier_kind central tree butterfly)

set(missing "")
foreach(tok ${expected_tokens})
  string(FIND "${usage}" "${tok}" pos)
  if(pos EQUAL -1)
    list(APPEND missing "${tok}")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR
          "usage output is missing documented flags/subcommands: ${missing}\n"
          "--- usage output ---\n${usage}")
endif()
list(LENGTH expected_tokens n)
message(STATUS "usage output documents all ${n} expected flags/subcommands")
