# Run one bench at its default size and compare its stdout with a golden
# file byte for byte; on a mismatch, fail with a unified diff.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P check_golden.cmake
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differ)
if(differ)
  # diff writes straight to this script's stdout, so the log keeps its lines.
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN} (diff above)")
endif()
