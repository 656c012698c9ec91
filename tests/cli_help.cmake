# Runs `lrgp_cli` with a request for its usage text: `-h`, `--help`, and
# `--help` after another flag must print the usage on stdout and exit 0.
# An unknown flag must still exit 2 with an `error:` line.
#
#   cmake -DCLI=<path to lrgp_cli> -P cli_help.cmake
if(NOT CLI)
  message(FATAL_ERROR "usage: cmake -DCLI=<lrgp_cli> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(failures "")
foreach(case "-h" "--help" "--engine;async;--help" "--iterations;5;-h")
  execute_process(
    COMMAND "${CLI}" ${case}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT status EQUAL 0 OR NOT stdout MATCHES "^usage: lrgp_cli" OR NOT stderr STREQUAL "")
    string(APPEND failures "  ${case}: exit '${status}', stdout '${stdout}', stderr '${stderr}'\n")
  else()
    message(STATUS "${case}: exit 0 with the usage")
  endif()
endforeach()

execute_process(
  COMMAND "${CLI}" --no-such-flag --help
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT status EQUAL 2 OR NOT stderr MATCHES "(^|\n)error: unknown option '--no-such-flag'")
  string(APPEND failures "  --no-such-flag --help: exit '${status}', stderr '${stderr}'\n")
else()
  message(STATUS "--no-such-flag --help: exit 2, ${stderr}")
endif()

if(failures)
  message(FATAL_ERROR "lrgp_cli mishandled a usage request:\n${failures}")
endif()
