# Runs `lrgp_cli --load` on malformed problem files.  Each must end in a
# typed error (exit 2, an "error:" line on stderr), never an abort (134),
# a crash (139) or an infeasible allocation.  A numeric flag whose value
# is not wholly a finite number (`--gamma nan|inf` among them), a
# thread-count flag above 256, an async horizon above one virtual hour
# and `--scenario` with a flag its replay would ignore must fail the
# same way, naming the flag.
#
#   cmake -DCLI=<path to lrgp_cli> -DWORK_DIR=<scratch dir> -P cli_malformed_input.cmake
if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<lrgp_cli> -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# A one-class problem whose max_consumers is spliced in.
function(one_class_problem out max_consumers)
  set(${out} "{\"nodes\":[{\"name\":\"n\",\"capacity\":10}],\"flows\":[{\"name\":\"f\",\"source\":\"n\",\"rate_min\":1,\"rate_max\":2,\"nodes\":[{\"node\":\"n\",\"cost\":1}]}],\"classes\":[{\"name\":\"c\",\"flow\":\"f\",\"node\":\"n\",\"max_consumers\":${max_consumers},\"consumer_cost\":1,\"utility\":{\"type\":\"log\",\"weight\":1}}]}" PARENT_SCOPE)
endfunction()

file(WRITE "${WORK_DIR}/truncated.json" "{")
file(WRITE "${WORK_DIR}/negative_capacity.json"
  "{\"nodes\":[{\"name\":\"n\",\"capacity\":-1}],\"flows\":[],\"classes\":[]}")
string(REPEAT "[" 2000000 deep)
file(WRITE "${WORK_DIR}/deep_nesting.json" "${deep}")
one_class_problem(fractional 2.5)
file(WRITE "${WORK_DIR}/fractional_count.json" "${fractional}")
one_class_problem(huge 1e300)
file(WRITE "${WORK_DIR}/huge_count.json" "${huge}")

# The base workload with every rate_max, or every flow-node cost F, at
# 1e308: a node's worst-case usage sum F * rate_max overflows to +inf.
execute_process(COMMAND "${CLI}" --save "${WORK_DIR}/base.json" --iterations 1 OUTPUT_QUIET)
file(READ "${WORK_DIR}/base.json" base)
string(REGEX REPLACE "\"rate_max\": [0-9.e+-]+" "\"rate_max\": 1e308" huge_rate "${base}")
file(WRITE "${WORK_DIR}/huge_rate_max.json" "${huge_rate}")
string(REGEX REPLACE "\"cost\": [0-9.e+-]+" "\"cost\": 1e308" huge_cost "${base}")
file(WRITE "${WORK_DIR}/huge_flow_node_cost.json" "${huge_cost}")
# The same workload with no feasible point: every flow-node cost F at
# 2147483647, or every node capacity at 1e-9, puts a node's sum of
# F * rate_min above its capacity.
string(REGEX REPLACE "\"cost\": [0-9.e+-]+" "\"cost\": 2147483647" floor_cost "${base}")
file(WRITE "${WORK_DIR}/floor_above_capacity_cost.json" "${floor_cost}")
string(REGEX REPLACE "\"capacity\": [0-9.e+-]+" "\"capacity\": 1e-9" floor_capacity "${base}")
file(WRITE "${WORK_DIR}/floor_above_capacity_capacity.json" "${floor_capacity}")

set(failures "")
foreach(name truncated negative_capacity deep_nesting fractional_count huge_count
        huge_rate_max huge_flow_node_cost floor_above_capacity_cost
        floor_above_capacity_capacity)
  execute_process(
    COMMAND "${CLI}" --load "${WORK_DIR}/${name}.json" --iterations 5
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT status EQUAL 2 OR NOT stderr MATCHES "(^|\n)error: ")
    string(APPEND failures "  ${name}.json: exit '${status}', stderr '${stderr}'\n")
  else()
    message(STATUS "${name}.json: exit 2, ${stderr}")
  endif()
endforeach()

# The unedited base workload loads and runs.
execute_process(
  COMMAND "${CLI}" --load "${WORK_DIR}/base.json" --iterations 5
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
  string(APPEND failures "  base.json: exit '${status}', stderr '${stderr}'\n")
endif()

# A numeric flag reads its whole argument as a finite number: trailing
# text, a word, a negative value for an unsigned field, nan or inf must
# not run with the leading number, with 0, with the wrapped value (-1 as
# seed 4294967295), with a non-finite node-price stepsize, or forever
# (--engine async --seconds inf).  A thread-count flag above its cap of
# 256 must not start that many threads, and an async horizon of 1e300 s
# (an overflowing tick count) or 1e9 s (weeks of wall time) must not
# start the runtime.
foreach(case "--gamma;abc" "--iterations;50x" "--shards;2x" "--seconds;2abc"
        "--enact-deadband;abc" "--seed;-1" "--obs-sample;abc" "--sa-steps;abc"
        "--gamma;nan" "--gamma;inf" "--seconds;inf" "--enact-deadband;nan"
        "--threads;257" "--agents;257;--engine;async" "--dataplane-workers;257"
        "--seconds;1e300;--engine;async" "--seconds;1e9;--engine;async")
  list(GET case 0 flag)
  execute_process(
    COMMAND "${CLI}" --iterations 5 ${case}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT status EQUAL 2 OR NOT stderr MATCHES "(^|\n)error: [^\n]*${flag}")
    string(APPEND failures "  ${case}: exit '${status}', stderr '${stderr}'\n")
  else()
    message(STATUS "${case}: exit 2, ${stderr}")
  endif()
endforeach()

# Each case is a flag the scenario replay ignores, with its value.
file(REMOVE "${WORK_DIR}/ignored.csv")
foreach(case "--dataplane;fast" "--csv;${WORK_DIR}/ignored.csv" "--iterations;5")
  list(GET case 0 flag)
  execute_process(
    COMMAND "${CLI}" --scenario fat_tree_heavy_tail_shifted_log ${case}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT status EQUAL 2 OR NOT stderr MATCHES "(^|\n)error: [^\n]*${flag}"
     OR EXISTS "${WORK_DIR}/ignored.csv")
    string(APPEND failures "  --scenario ... ${case}: exit '${status}', stderr '${stderr}'\n")
  else()
    message(STATUS "--scenario ... ${case}: exit 2, ${stderr}")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "lrgp_cli did not fail cleanly on:\n${failures}")
endif()
