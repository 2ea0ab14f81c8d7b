# CTest script: the global barrier's link latency, a NoC link's width and
# the shared L2 bandwidth are constants of the system model
# (src/system/system_config.hpp), not suite keys. A suite file whose system
# block spells one must fail validation (exit 1), naming the key's path.
#
# Variables (passed with -D):
#   TCDM_RUN  path to the tcdm_run binary
#   OUT_DIR   scratch directory

foreach(var TCDM_RUN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "removed_system_keys.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(key barrier_link_latency noc_link_words l2_bandwidth_words)
  set(suite "${OUT_DIR}/${key}.json")
  file(WRITE "${suite}"
"{\"schema\": \"tcdm-scenarios\", \"schema_version\": 1, \"suite\": \"removed_key\",
 \"scenarios\": [{\"name\": \"a\", \"config\": {\"preset\": \"mp4spatz4\"},
                \"kernel\": {\"kind\": \"axpy\", \"n\": 256},
                \"system\": {\"num_clusters\": 2, \"${key}\": 4}}]}
")
  execute_process(
    COMMAND "${TCDM_RUN}" validate "${suite}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "validate ${suite}: expected exit code 1, got ${rc}\n${out}${err}")
  endif()
  string(FIND "${out}${err}" "scenarios[0]/system/${key}: unknown key" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "validate ${suite}: the error does not name ${key}\n${out}${err}")
  endif()
endforeach()
message(STATUS "every removed system key is refused by name")
