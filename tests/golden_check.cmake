# Render each experiment named in EXPERIMENTS (space-separated) with
# penelope_bench at the options in ARGS and compare its stdout byte
# for byte with GOLDEN_DIR/<experiment>_<SUFFIX>.txt.
#
#   cmake -DBENCH=<penelope_bench> -DGOLDEN_DIR=<dir> -DSUFFIX=<tag>
#         -DOUT_DIR=<dir> -DNAME=<test> [-DSHARD=ON | -DONE_PROCESS=ON]
#         "-DEXPERIMENTS=a b" "-DARGS=--x 1" -P golden_check.cmake
#
# With SHARD on, each experiment instead runs as `--shard 0/2` and
# `--shard 1/2` (writing shard files) and is rendered by `--merge` of
# the two files; the merged stdout must equal the golden and the
# merge run must report `0 stores` (the shards covered every
# per-trace result, so nothing was recomputed).
#
# With ONE_PROCESS on, every experiment runs in one penelope_bench
# invocation instead, whose stdout must equal the goldens
# concatenated in EXPERIMENTS order.  The run must also report
# result-cache hits under --metrics-dump: later experiments reuse the
# per-trace results earlier ones computed, and that reuse must not
# move a byte.
#
# A mismatch leaves the rendered output in OUT_DIR beside the golden
# path it should equal.  A deliberate change to a statistic updates
# these files in the same commit that bumps kResultCacheSalt.

separate_arguments(EXPERIMENTS UNIX_COMMAND "${EXPERIMENTS}")
separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
set(failed "")
if(ONE_PROCESS)
  set(expected "")
  foreach(experiment IN LISTS EXPERIMENTS)
    file(READ "${GOLDEN_DIR}/${experiment}_${SUFFIX}.txt" golden)
    string(APPEND expected "${golden}")
  endforeach()
  set(out "${OUT_DIR}/golden_actual_${NAME}")
  file(WRITE "${out}_expected.txt" "${expected}")
  execute_process(
    COMMAND "${BENCH}" ${EXPERIMENTS} ${ARGS} --metrics-dump
    OUTPUT_FILE "${out}.txt"
    ERROR_VARIABLE log
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "golden check failed: exit ${status}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}_expected.txt" "${out}.txt"
    RESULT_VARIABLE differs)
  if(differs)
    list(APPEND failed "${out}.txt != ${out}_expected.txt")
  endif()
  if(NOT log MATCHES "obs: cache\\.hits [1-9]")
    string(REGEX MATCH "obs: cache\\.hits [^\n]*" hits "${log}")
    list(APPEND failed "no result reused in-process (${hits})")
  endif()
  set(EXPERIMENTS "")
endif()
foreach(experiment IN LISTS EXPERIMENTS)
  set(golden "${GOLDEN_DIR}/${experiment}_${SUFFIX}.txt")
  set(out "${OUT_DIR}/golden_actual_${NAME}_${experiment}")
  set(command "${BENCH}" ${experiment} ${ARGS})
  if(SHARD)
    foreach(index 0 1)
      execute_process(
        COMMAND ${command} --shard ${index}/2
                --shard-out "${out}_shard${index}.bin"
        OUTPUT_QUIET ERROR_QUIET
        RESULT_VARIABLE status)
      if(NOT status EQUAL 0)
        list(APPEND failed "${experiment} --shard ${index}/2 (exit ${status})")
      endif()
    endforeach()
    list(APPEND command --merge "${out}_shard0.bin" "${out}_shard1.bin")
  endif()
  execute_process(
    COMMAND ${command}
    OUTPUT_FILE "${out}.txt"
    ERROR_VARIABLE log
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    list(APPEND failed "${experiment} (exit ${status})")
    continue()
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${out}.txt"
    RESULT_VARIABLE differs)
  if(differs)
    list(APPEND failed "${experiment} (${out}.txt != ${golden})")
  endif()
  if(SHARD AND NOT log MATCHES "result cache: [0-9]+ hits, [0-9]+ misses, 0 stores")
    string(REGEX MATCH "result cache: [^\n]*" stats "${log}")
    list(APPEND failed "${experiment} merge recomputed (${stats})")
  endif()
endforeach()
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "golden check failed: ${failed}")
endif()
