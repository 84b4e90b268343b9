# Runs one bench command line and checks how it ends:
#
#   cmake -DEXIT=<status> [-DSTDERR=<regex>] [-DSTDOUT=<regex>]
#         -P check_cli.cmake -- <binary> [args...]
#
# The test fails unless the command exits with EXIT and its stderr and
# stdout match the given regexes. Everything after `--` is passed through
# verbatim, empty arguments included.
set(command "")
set(passing FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(passing)
    string(APPEND command " [==[${CMAKE_ARGV${i}}]==]")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(passing TRUE)
  endif()
endforeach()
cmake_language(EVAL CODE "
  execute_process(COMMAND ${command} TIMEOUT 120 RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)")
set(report "exit status ${status}\nstdout:\n${out}\nstderr:\n${err}")
if(NOT status STREQUAL EXIT)
  message(FATAL_ERROR "want exit status ${EXIT}; got ${report}")
endif()
if(DEFINED STDERR AND NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "want stderr matching '${STDERR}'; got ${report}")
endif()
if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR "want stdout matching '${STDOUT}'; got ${report}")
endif()
