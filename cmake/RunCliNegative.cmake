# Negative-path smoke test for operb_cli, run via `cmake -P` from ctest.
# Expects -DOPERB_CLI=<path to binary>.
#
# Every malformed invocation must exit with the documented usage code (2),
# print a one-line diagnostic on stderr, and never reach a CHECK abort
# (which would exit 134/SIGABRT and print "OPERB_CHECK failed").

if(NOT OPERB_CLI)
  message(FATAL_ERROR "usage: cmake -DOPERB_CLI=... -P RunCliNegative.cmake")
endif()

# Each case: a label, then the space-separated argument list (no argument
# contains a space; ';' cannot be the separator because it would flatten
# the outer CMake list).
set(cases
  "unknown_algorithm|--algorithm NOPE"
  "negative_zeta|--zeta -3"
  "zero_zeta|--zeta 0"
  "malformed_zeta|--zeta abc"
  "locale_comma_spec|--spec OPERB:zeta=2,5"
  "unknown_spec_algorithm|--spec NOPE:zeta=5"
  "unknown_spec_option|--spec DP:gamma_m=1"
  "out_of_range_spec_option|--spec OPERB:step_length=7"
  "malformed_spec|--spec OPERB:zeta"
  "bad_fidelity|--fidelity fast"
  "zero_threads|--group-by-id --threads 0"
  "threads_without_group_by_id|--threads 8 --generate Taxi:300"
  "shards_without_group_by_id|--shards 3 --generate Taxi:300"
  "objects_without_group_by_id|--objects 5 --generate Taxi:300"
  "unknown_flag|--wibble"
  "bad_generate|--generate Nowhere:100"
  "query_without_shape|--query nowhere.store"
  "query_mixed_with_input|--query nowhere.store --object 1 --generate Taxi:100"
  "query_flags_without_query|--object 3"
  "query_bad_window|--query nowhere.store --window 1,2,3"
  "query_at_without_object|--query nowhere.store --at 5"
  "query_bad_object|--object -1 --query nowhere.store"
  "query_with_engine_flags|--query nowhere.store --object 1 --threads 2"
  "query_with_no_verify|--query nowhere.store --object 1 --no-verify"
  "query_at_outside_range|--query nowhere.store --object 1 --from 0 --to 10 --at 500"
)

foreach(case IN LISTS cases)
  string(FIND "${case}" "|" sep)
  string(SUBSTRING "${case}" 0 ${sep} label)
  math(EXPR arg_start "${sep} + 1")
  string(SUBSTRING "${case}" ${arg_start} -1 args)
  string(REPLACE " " ";" args "${args}")

  execute_process(
    COMMAND "${OPERB_CLI}" ${args}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)

  if(NOT result EQUAL 2)
    message(FATAL_ERROR
      "${label}: expected usage exit code 2, got '${result}'\n"
      "stdout: ${stdout}\nstderr: ${stderr}")
  endif()
  if(stderr STREQUAL "")
    message(FATAL_ERROR "${label}: no diagnostic on stderr")
  endif()
  if(stderr MATCHES "OPERB_CHECK")
    message(FATAL_ERROR
      "${label}: bad input reached a CHECK abort\nstderr: ${stderr}")
  endif()
endforeach()

# Sanity: a *valid* spec still succeeds, so the harness above is not
# passing because everything fails.
execute_process(
  COMMAND "${OPERB_CLI}" --generate SerCar:300:2
          --spec operb-a:zeta=30,fidelity=guarded
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR
    "valid spec run failed (exit ${result})\n${stdout}\n${stderr}")
endif()

message(STATUS "operb_cli negative-path smoke passed")
