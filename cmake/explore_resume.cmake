# CTest script: resuming `tcdm_run explore` from its memo cache. A search
# stopped by --budget 3 (exit 0, simulations=3) is run again with the same
# --cache and no budget: its three simulations must come back as cache hits
# (cache_hits=3) and its Pareto report must be byte-identical to an
# uninterrupted run's. The cache is the only state a search persists.
#
# Variables (passed with -D):
#   TCDM_RUN  path to the tcdm_run binary
#   SEED      optional: suite seed (default 42)
#   COUNT     optional: scenarios in the generated suite (default 12)
#   OUT_DIR   scratch directory

foreach(var TCDM_RUN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "explore_resume.cmake: missing -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED SEED)
  set(SEED 42)
endif()
if(NOT DEFINED COUNT)
  set(COUNT 12)
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(suite "${OUT_DIR}/suite.json")

execute_process(
  COMMAND "${TCDM_RUN}" gen --seed ${SEED} --count ${COUNT} --out "${suite}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed (exit ${rc})")
endif()

# Uninterrupted reference run.
execute_process(
  COMMAND "${TCDM_RUN}" explore --report "${OUT_DIR}/reference.json" "${suite}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference explore failed (exit ${rc})")
endif()

# Stopped run: the budget ends the search gracefully after 3 simulations.
execute_process(
  COMMAND "${TCDM_RUN}" explore --cache "${OUT_DIR}/cache.jsonl" --budget 3
          "${suite}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--budget 3 run: expected exit 0, got ${rc}")
endif()
if(NOT out MATCHES " simulations=3 .*budget_exhausted=1")
  message(FATAL_ERROR "--budget 3 run did not stop after 3 simulations: ${out}")
endif()

# Rerun with the same cache: the stopped run's simulations are free hits and
# the search completes with the uninterrupted run's frontier.
execute_process(
  COMMAND "${TCDM_RUN}" explore --cache "${OUT_DIR}/cache.jsonl"
          --report "${OUT_DIR}/resumed.json" "${suite}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rerun explore failed (exit ${rc})")
endif()
if(NOT out MATCHES " cache_hits=3 ")
  message(FATAL_ERROR "rerun did not reuse the 3 cached simulations: ${out}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT_DIR}/reference.json" "${OUT_DIR}/resumed.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed frontier differs from the uninterrupted run")
endif()

message(STATUS "--budget 3 stop + rerun from the cache reproduces the reference")
