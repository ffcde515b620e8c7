# Golden parity check: run a binary and compare its output byte for byte
# with a committed golden file.
#
# Usage: cmake -DBENCH=<binary> -DGOLDEN=<file> [-DARGS=<arguments>]
#              [-DOUTPUT=<file>] -P compare.cmake
# ARGS is split like a shell command line and passed to the binary.
# Without OUTPUT the binary's stdout is compared; with OUTPUT, the file the
# binary wrote there. On a mismatch the actual output is written next to
# the working directory as <golden name>.actual, so `diff` shows what moved.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(OUTPUT)
  file(REMOVE "${OUTPUT}")
endif()
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}\n${errors}")
endif()
if(OUTPUT)
  if(NOT EXISTS "${OUTPUT}")
    message(FATAL_ERROR "${BENCH} did not write ${OUTPUT}\n${errors}")
  endif()
  file(READ "${OUTPUT}" actual)
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR "output of ${BENCH} differs from ${GOLDEN}; "
                      "actual output written to ${name}.actual")
endif()
