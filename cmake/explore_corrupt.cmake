# CTest script: a corrupt or version-mismatched explore memo cache must be
# refused with exit 2 (unusable input), and the error must name the
# offending path — never a crash, never a silently restarted search.
#
# Variables (passed with -D):
#   TCDM_RUN  path to the tcdm_run binary
#   OUT_DIR   scratch directory

foreach(var TCDM_RUN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "explore_corrupt.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(suite "${OUT_DIR}/suite.json")

execute_process(
  COMMAND "${TCDM_RUN}" gen --seed 1 --count 4 --out "${suite}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed (exit ${rc})")
endif()

# Helper: run explore with ARGN, require exit 2 and `pattern` in stderr.
function(expect_refusal pattern)
  execute_process(
    COMMAND "${TCDM_RUN}" explore ${ARGN} "${suite}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "explore ${ARGN}: expected exit 2, got ${rc} (stderr: ${err})")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
            "explore ${ARGN}: error does not match '${pattern}': ${err}")
  endif()
endfunction()

# 1. Unparsable cache line (not the final line): refused, path:line named.
file(WRITE "${OUT_DIR}/bad-cache.jsonl"
     "{\"schema\":\"tcdm-explore-cache\",\"schema_version\":3}\nnot json\n{}\n")
expect_refusal("bad-cache\\.jsonl:2" --cache "${OUT_DIR}/bad-cache.jsonl")

# 2. Version-mismatched cache header: refused, version named.
file(WRITE "${OUT_DIR}/vers-cache.jsonl"
     "{\"schema\":\"tcdm-explore-cache\",\"schema_version\":999}\n")
expect_refusal("vers-cache\\.jsonl:1.*schema_version"
               --cache "${OUT_DIR}/vers-cache.jsonl")

# 3. Older stores (keys hashed from an older config spelling, which would
#    never hit; version 2 keyed System points by the since-removed link,
#    L2 and barrier latency fields): refused, version named, so the user
#    starts a new one.
foreach(version 1 2)
  file(WRITE "${OUT_DIR}/v${version}-cache.jsonl"
       "{\"schema\":\"tcdm-explore-cache\",\"schema_version\":${version}}\n")
  expect_refusal("v${version}-cache\\.jsonl:1.*schema_version.*expected 3"
                 --cache "${OUT_DIR}/v${version}-cache.jsonl")
endforeach()

# 4. A header key of the wrong type: refused, file, line 1 and key named.
file(WRITE "${OUT_DIR}/type-cache.jsonl"
     "{\"schema\":1,\"schema_version\":3}\n")
expect_refusal("type-cache\\.jsonl:1/schema: expected a string"
               --cache "${OUT_DIR}/type-cache.jsonl")

message(STATUS "corrupt cache artifacts are refused with exit 2")
