# Reruns the command that made one committed bench snapshot and compares
# its fresh summary with the snapshot:
#
#   cmake -DPYTHON=<python3> -DBENCH_DIFF=<tools/bench_diff.py>
#         -DSNAPSHOT=<BENCH_name.json> -DFRESH=<file>
#         -P check_snapshot.cmake -- <bench> [args...]
#
# The bench runs with `--json FRESH` appended. The test fails when the bench
# exits nonzero or when bench_diff finds a field that moved (it prints each
# one). A change that moves a snapshot on purpose reruns the same command
# with `--json BENCH_name.json` and commits the result, so the diff shows
# the move.
set(command "")
set(passing FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(passing)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(passing TRUE)
  endif()
endforeach()
get_filename_component(fresh_dir "${FRESH}" DIRECTORY)
file(MAKE_DIRECTORY "${fresh_dir}")
execute_process(COMMAND ${command} --json "${FRESH}" RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT status EQUAL 0)
  string(REPLACE ";" " " shown "${command}")
  message(FATAL_ERROR "${shown} exited with ${status}:\n${out}")
endif()
execute_process(COMMAND "${PYTHON}" "${BENCH_DIFF}" "${SNAPSHOT}" "${FRESH}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${FRESH} differs from ${SNAPSHOT}")
endif()
