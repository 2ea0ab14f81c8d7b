# A smoke run against a pristine copy of a reference document passes; the
# same run against a copy with one value changed must exit 1.
#   -DTCDM_BENCH=<tcdm_bench> -DREFERENCE=<system_halo.json> -DOUT_DIR=<dir>
cmake_minimum_required(VERSION 3.16)
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR}/pristine ${OUT_DIR}/tampered)
file(READ ${REFERENCE} original_text)
file(WRITE ${OUT_DIR}/pristine/system_halo.json "${original_text}")

# The first scenario's cycle count, which every smoke run emits.
string(REGEX REPLACE "(\"c8/central/len2/cycles\": {[^}]*\"value\": )[0-9]+" "\\11"
       tampered_text "${original_text}")
if(tampered_text STREQUAL original_text)
  message(FATAL_ERROR "could not tamper with ${REFERENCE}")
endif()
file(WRITE ${OUT_DIR}/tampered/system_halo.json "${tampered_text}")

foreach(copy pristine tampered)
  execute_process(
    COMMAND ${TCDM_BENCH} --workload system_halo --smoke --reference-dir ${OUT_DIR}/${copy}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(copy STREQUAL "pristine")
    set(expected 0)
  else()
    set(expected 1)
  endif()
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "${copy} reference: expected exit ${expected}, got ${rc}\n${out}${err}")
  endif()
endforeach()
