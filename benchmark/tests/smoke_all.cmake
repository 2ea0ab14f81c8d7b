# --smoke of every workload, one process each (the CTest TIMEOUT bounds the
# total). Each run must exit 0 and end with a correct result line.
#   -DTCDM_BENCH=<tcdm_bench> -DOUT_DIR=<dir>
foreach(workload paper_kernels traffic_mix dse_random system_halo)
  execute_process(
    COMMAND ${TCDM_BENCH} --workload ${workload} --smoke --results-dir ${OUT_DIR}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${workload}: exit ${rc}\n${out}${err}")
  endif()
  string(STRIP "${out}" out)
  string(REGEX MATCH "[^\n]*$" last "${out}")
  if(NOT last MATCHES "^{\"attempted\":[1-9][0-9]*,\"correct\":true,\"failed\":0,")
    message(FATAL_ERROR "${workload}: bad result line: ${last}")
  endif()
endforeach()
