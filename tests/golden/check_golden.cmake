# Runs one exhibit and compares its stdout, byte for byte, with its golden
# file:
#
#   cmake -DEXHIBIT=<binary> [-DEXHIBIT_ARGS="<args>"] -DGOLDEN=<file>
#         -DOUTPUT=<file> -P check_golden.cmake
#
# EXHIBIT_ARGS, split like a Unix command line, is passed to the exhibit;
# it lets one golden pin several invocations that must print the same.
# The test fails when the exhibit exits nonzero or prints anything else.
# After a change that moves an exhibit on purpose, regenerate its golden
# with `<binary> > <golden>` in the same commit, so the diff shows the move.
get_filename_component(output_dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${output_dir}")
separate_arguments(exhibit_args UNIX_COMMAND "${EXHIBIT_ARGS}")
execute_process(COMMAND "${EXHIBIT}" ${exhibit_args} OUTPUT_FILE "${OUTPUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXHIBIT} ${EXHIBIT_ARGS} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUTPUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  find_program(diff_program diff)
  if(diff_program)
    execute_process(COMMAND "${diff_program}" -u "${GOLDEN}" "${OUTPUT}")
  endif()
  message(FATAL_ERROR
          "stdout of ${EXHIBIT} ${EXHIBIT_ARGS} differs from ${GOLDEN}")
endif()
