# Golden parity check: run a bench binary and compare its stdout byte for
# byte with a committed golden file.
#
# Usage: cmake -DBENCH=<binary> -DGOLDEN=<file> -P compare.cmake
# On a mismatch the actual output is written next to the working directory
# as <golden name>.actual, so `diff` shows what moved.
execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}\n${errors}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "actual output written to ${name}.actual")
endif()
