# CTest script: prove that a parallel `tcdm_run emit` is byte-identical to
# the serial one. Runs the same suite twice — once with the SER_ARGS flags
# (default: serial sweep, event-driven stepping), once with the PAR_ARGS
# parallelism flags — and compares the emitted JSON documents bit for bit,
# logging both md5 digests so the identity is auditable from the test log.
#
# Variables (passed with -D):
#   TCDM_RUN  path to the tcdm_run binary
#   SUITE     suite name (the emitted file is <suite>.json), or --all: emit
#             every builtin suite with the PAR_ARGS flags only, and compare
#             each <suite>.json with the one in the REF directory
#   OUT_DIR   scratch directory for the two emissions
#   FILE      optional: a tcdm-scenarios suite file; the suite is then
#             loaded with `--no-builtin --file` instead of from the builtins
#   SER_ARGS  optional: flags for the reference emit (default: none) — use
#             it to pin both legs to one stepping mode while only PAR_ARGS
#             carries the parallelism under test
#   PAR_ARGS  optional: parallelism flags for the second emit
#             (default "-j 4")
#   REF       optional: a recorded document (e.g. baselines/<suite>.json)
#             the serial emission must also equal byte for byte, so a drift
#             that hits both legs alike still fails; with SUITE=--all, the
#             directory of recorded documents (required)

foreach(var TCDM_RUN SUITE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "emit_identity.cmake: missing -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED PAR_ARGS)
  set(PAR_ARGS "-j 4")
endif()
if(NOT DEFINED SER_ARGS)
  set(SER_ARGS "")
endif()
separate_arguments(par_flags UNIX_COMMAND "${PAR_ARGS}")
separate_arguments(ser_flags UNIX_COMMAND "${SER_ARGS}")

set(base_args emit)
set(select_args "${SUITE}")
if(DEFINED FILE)
  list(APPEND base_args --no-builtin --file "${FILE}")
  set(select_args "")  # with --file and no selection, the file suite is emitted
endif()

file(REMOVE_RECURSE "${OUT_DIR}")

if(SUITE STREQUAL "--all")
  if(NOT DEFINED REF OR NOT IS_DIRECTORY "${REF}")
    message(FATAL_ERROR "emit_identity.cmake: SUITE=--all needs -DREF=<directory>")
  endif()
  execute_process(
    COMMAND "${TCDM_RUN}" emit ${par_flags} --out "${OUT_DIR}/par" --all
    RESULT_VARIABLE rc_all)
  if(NOT rc_all EQUAL 0)
    message(FATAL_ERROR "emit --all (${PAR_ARGS}) failed (exit ${rc_all})")
  endif()
  file(GLOB emitted RELATIVE "${OUT_DIR}/par" "${OUT_DIR}/par/*.json")
  if(NOT emitted)
    message(FATAL_ERROR "emit --all (${PAR_ARGS}) wrote no documents")
  endif()
  set(differing "")
  foreach(doc ${emitted})
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files "${REF}/${doc}" "${OUT_DIR}/par/${doc}"
      RESULT_VARIABLE rc_doc)
    if(NOT rc_doc EQUAL 0)
      list(APPEND differing "${doc}")
    endif()
  endforeach()
  if(differing)
    message(FATAL_ERROR
            "emit --all (${PAR_ARGS}) differs from ${REF} in: ${differing}")
  endif()
  list(LENGTH emitted n_docs)
  message(STATUS "emit --all (${PAR_ARGS}): all ${n_docs} suites equal ${REF}")
  return()
endif()

execute_process(
  COMMAND "${TCDM_RUN}" ${base_args} ${ser_flags} --out "${OUT_DIR}/serial" ${select_args}
  RESULT_VARIABLE rc_serial)
if(NOT rc_serial EQUAL 0)
  message(FATAL_ERROR "serial emit of ${SUITE} failed (exit ${rc_serial})")
endif()

execute_process(
  COMMAND "${TCDM_RUN}" ${base_args} ${par_flags} --out "${OUT_DIR}/par" ${select_args}
  RESULT_VARIABLE rc_par)
if(NOT rc_par EQUAL 0)
  message(FATAL_ERROR "parallel (${PAR_ARGS}) emit of ${SUITE} failed (exit ${rc_par})")
endif()

file(MD5 "${OUT_DIR}/serial/${SUITE}.json" md5_serial)
file(MD5 "${OUT_DIR}/par/${SUITE}.json" md5_par)
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT_DIR}/serial/${SUITE}.json" "${OUT_DIR}/par/${SUITE}.json"
  RESULT_VARIABLE rc_cmp)
if(NOT rc_cmp EQUAL 0 OR NOT md5_serial STREQUAL md5_par)
  message(FATAL_ERROR
          "parallel (${PAR_ARGS}) emission of ${SUITE} differs from the serial "
          "(${SER_ARGS}) one: md5 ${md5_par} vs ${md5_serial}")
endif()

if(DEFINED REF)
  file(MD5 "${REF}" md5_ref)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${REF}" "${OUT_DIR}/serial/${SUITE}.json"
    RESULT_VARIABLE rc_ref)
  if(NOT rc_ref EQUAL 0)
    message(FATAL_ERROR
            "serial (${SER_ARGS}) emission of ${SUITE} differs from ${REF}: "
            "md5 ${md5_serial} vs ${md5_ref}")
  endif()
  message(STATUS "${SUITE}: serial (${SER_ARGS}) emission equals ${REF}")
endif()

message(STATUS
        "${SUITE}: ${PAR_ARGS} emission is byte-identical (md5 ${md5_serial})")
