# Runs one exhibit and compares its stdout, byte for byte, with its golden
# file:
#
#   cmake -DEXHIBIT=<binary> -DGOLDEN=<file> -DOUTPUT=<file>
#         -P check_golden.cmake
#
# The test fails when the exhibit exits nonzero or prints anything else.
# After a change that moves an exhibit on purpose, regenerate its golden
# with `<binary> > <golden>` in the same commit, so the diff shows the move.
get_filename_component(output_dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${output_dir}")
execute_process(COMMAND "${EXHIBIT}" OUTPUT_FILE "${OUTPUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXHIBIT} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUTPUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  find_program(diff_program diff)
  if(diff_program)
    execute_process(COMMAND "${diff_program}" -u "${GOLDEN}" "${OUTPUT}")
  endif()
  message(FATAL_ERROR "stdout of ${EXHIBIT} differs from ${GOLDEN}")
endif()
