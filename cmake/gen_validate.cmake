# CTest script for the randomized-suite generator contract:
#   1. the same seed reproduces the same file, byte for byte, whether the
#      flags are spelled `--name V` or `--name=V`;
#   2. a different seed produces a different file;
#   3. `tcdm_run gen | tcdm_run validate` passes (stdout -> stdin pipeline);
#   4. a written generated file validates too;
#   5. differential oracle: emitting the generated suite serially with
#      event-driven stepping and at -j 4 with self-verifying check stepping
#      produces byte-identical documents (a third of the points are
#      multi-cluster System scenarios).
#
# Variables (passed with -D):
#   TCDM_RUN  path to the tcdm_run binary
#   OUT_DIR   scratch directory

foreach(var TCDM_RUN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "gen_validate.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# The second run spells every flag `--name=V`: both spellings of the one
# command-line grammar must write the same file.
execute_process(
  COMMAND "${TCDM_RUN}" gen --seed 1 --count 20 --out "${OUT_DIR}/seed1-a.json"
  RESULT_VARIABLE rc_a)
execute_process(
  COMMAND "${TCDM_RUN}" gen --seed=1 --count=20 "--out=${OUT_DIR}/seed1-b.json"
  RESULT_VARIABLE rc_b)
if(NOT rc_a EQUAL 0 OR NOT rc_b EQUAL 0)
  message(FATAL_ERROR "gen --seed 1 failed (exit ${rc_a} / ${rc_b})")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT_DIR}/seed1-a.json" "${OUT_DIR}/seed1-b.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen --seed 1 is not reproducible byte for byte")
endif()

execute_process(
  COMMAND "${TCDM_RUN}" gen --seed 2 --count 20 --out "${OUT_DIR}/seed2.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen --seed 2 failed (exit ${rc})")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT_DIR}/seed1-a.json" "${OUT_DIR}/seed2.json"
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "gen --seed 2 produced the same file as --seed 1")
endif()

# execute_process chains COMMANDs stdout -> stdin, i.e. `gen | validate`.
execute_process(
  COMMAND "${TCDM_RUN}" gen --seed 1 --count 20
  COMMAND "${TCDM_RUN}" validate
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen --seed 1 --count 20 | validate failed (exit ${rc})")
endif()

execute_process(
  COMMAND "${TCDM_RUN}" validate "${OUT_DIR}/seed1-a.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "validate of a written generated file failed (exit ${rc})")
endif()

set(serial_flags -j 1)
set(check_flags -j 4 --stepping check)
foreach(leg serial check)
  execute_process(
    COMMAND "${TCDM_RUN}" emit ${${leg}_flags} --no-builtin --file "${OUT_DIR}/seed1-a.json"
            --out "${OUT_DIR}/emit-${leg}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "emit of the generated suite (${${leg}_flags}) failed (exit ${rc})")
  endif()
endforeach()
file(GLOB emitted RELATIVE "${OUT_DIR}/emit-serial" "${OUT_DIR}/emit-serial/*.json")
if(NOT emitted)
  message(FATAL_ERROR "emit of the generated suite wrote no document")
endif()
foreach(doc ${emitted})
  file(MD5 "${OUT_DIR}/emit-serial/${doc}" md5_serial)
  if(NOT EXISTS "${OUT_DIR}/emit-check/${doc}")
    message(FATAL_ERROR "-j 4 --stepping check emitted no ${doc}")
  endif()
  file(MD5 "${OUT_DIR}/emit-check/${doc}" md5_check)
  if(NOT md5_serial STREQUAL md5_check)
    message(FATAL_ERROR
            "generated suite ${doc}: -j 4 --stepping check emission differs from "
            "the serial event-driven one: md5 ${md5_check} vs ${md5_serial}")
  endif()
  message(STATUS "generated suite ${doc}: serial/event and -j 4/check agree (md5 ${md5_serial})")
endforeach()

message(STATUS "gen/validate: reproducible, seed-sensitive, pipeline-clean, differential-clean")
