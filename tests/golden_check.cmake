# Render each experiment named in EXPERIMENTS (space-separated) with
# penelope_bench at the options in ARGS and compare its stdout byte
# for byte with GOLDEN_DIR/<experiment>_<SUFFIX>.txt.
#
#   cmake -DBENCH=<penelope_bench> -DGOLDEN_DIR=<dir> -DSUFFIX=<tag>
#         -DOUT_DIR=<dir> "-DEXPERIMENTS=a b" "-DARGS=--x 1"
#         -P golden_check.cmake
#
# A mismatch leaves the rendered output in OUT_DIR beside the golden
# path it should equal.  A deliberate change to a statistic updates
# these files in the same commit that bumps kResultCacheSalt.

separate_arguments(EXPERIMENTS UNIX_COMMAND "${EXPERIMENTS}")
separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
set(failed "")
foreach(experiment IN LISTS EXPERIMENTS)
  set(golden "${GOLDEN_DIR}/${experiment}_${SUFFIX}.txt")
  set(actual "${OUT_DIR}/golden_actual_${experiment}_${SUFFIX}.txt")
  execute_process(
    COMMAND "${BENCH}" ${experiment} ${ARGS}
    OUTPUT_FILE "${actual}"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    list(APPEND failed "${experiment} (exit ${status})")
    continue()
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${actual}"
    RESULT_VARIABLE differs)
  if(differs)
    list(APPEND failed "${experiment} (${actual} != ${golden})")
  endif()
endforeach()
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "stdout differs from the golden: ${failed}")
endif()
