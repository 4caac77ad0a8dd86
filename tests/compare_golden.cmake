# Byte-for-byte check of a bench's stdout against a committed golden
# file (cmake -P). Inputs: COMMAND (a ;-list: the binary and its
# arguments), GOLDEN (the committed file) and OUT (where the fresh
# output is written). A mismatch prints the command that regenerates
# the golden file.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${COMMAND}
                OUTPUT_FILE ${OUT}
                ERROR_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${status}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differ)
if(differ)
  string(REPLACE ";" " " command_text "${COMMAND}")
  message(FATAL_ERROR
    "the printed output moved: diff ${GOLDEN} ${OUT}\n"
    "If the change is intended, regenerate the golden file:\n"
    "  ${command_text} > ${GOLDEN}\n")
endif()
