# Metrics snapshot smoke for operb_cli, run via `cmake -P` from ctest.
# Expects -DOPERB_CLI=<path> and -DWORK_DIR=<scratch dir>.
#
# Covers the --metrics-out / --metrics-every flag contract end to end:
# a group-by-id run writes a parseable operb-metrics-snapshot JSON with
# the engine/pipeline instruments populated, single-trajectory mode
# writes its final snapshot too, snapshot writing is observationally
# transparent (the instrumented run's output CSV is byte-identical to
# the plain run's), and the documented negatives keep their exit codes
# (unwritable path and misused --metrics-every are usage errors, 2).

if(NOT OPERB_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DOPERB_CLI=... -DWORK_DIR=... -P RunCliMetrics.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

# Checks one snapshot file: parses as JSON, carries the schema header,
# and the named counter is present with a positive value.
function(check_snapshot path want_counter)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "metrics snapshot ${path} was not written")
  endif()
  file(READ "${path}" doc)
  string(JSON schema ERROR_VARIABLE err GET "${doc}" schema)
  if(err OR NOT schema STREQUAL "operb-metrics-snapshot")
    message(FATAL_ERROR
      "${path}: bad or missing schema ('${schema}', err: ${err})")
  endif()
  string(JSON version ERROR_VARIABLE err GET "${doc}" schema_version)
  if(err OR NOT version EQUAL 1)
    message(FATAL_ERROR
      "${path}: bad schema_version ('${version}', err: ${err})")
  endif()
  foreach(section counters gauges max_gauges histograms trace)
    string(JSON ignored ERROR_VARIABLE err GET "${doc}" ${section})
    if(err)
      message(FATAL_ERROR "${path}: missing section '${section}': ${err}")
    endif()
  endforeach()
  string(JSON value ERROR_VARIABLE err GET "${doc}" counters
         "${want_counter}")
  if(err)
    message(FATAL_ERROR
      "${path}: counter '${want_counter}' missing: ${err}")
  endif()
  if(NOT value GREATER 0)
    message(FATAL_ERROR
      "${path}: counter '${want_counter}' is ${value}, want > 0")
  endif()
endfunction()

# Shared input so the transparency check compares identical feeds. The
# reference run re-reads the saved CSV like the instrumented run does —
# generating in-process would feed unrounded doubles (see
# RunCliCheckpoint.cmake).
set(input_csv "${WORK_DIR}/input.csv")
set(plain_out "${WORK_DIR}/plain_out.csv")
execute_process(
  COMMAND "${OPERB_CLI}" --group-by-id
          --generate "SerCar:300:20170807" --objects 6
          --spec "OPERB:zeta=40" --no-verify
          --save-input "${input_csv}"
  RESULT_VARIABLE result
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "input synthesis failed (exit ${result})\n${stderr}")
endif()
execute_process(
  COMMAND "${OPERB_CLI}" --group-by-id --input "${input_csv}"
          --spec "OPERB:zeta=40" --no-verify --output "${plain_out}"
  RESULT_VARIABLE result
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "reference run failed (exit ${result})\n${stderr}")
endif()

# Group-by-id run with periodic snapshots: the engine path, the line the
# usage text promises, and the engine.* instruments in the final file.
set(group_snapshot "${WORK_DIR}/group_metrics.json")
set(metrics_out "${WORK_DIR}/metrics_out.csv")
execute_process(
  COMMAND "${OPERB_CLI}" --group-by-id --input "${input_csv}"
          --spec "OPERB:zeta=40" --no-verify
          --metrics-out "${group_snapshot}" --metrics-every 137
          --output "${metrics_out}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0 OR NOT stdout MATCHES "metrics:")
  message(FATAL_ERROR
    "group metrics run failed (exit ${result})\n${stdout}\n${stderr}")
endif()
check_snapshot("${group_snapshot}" "engine.points_routed")

# Snapshot writing must not perturb the output (same contract as
# periodic checkpoints).
file(READ "${plain_out}" want_bytes)
file(READ "${metrics_out}" got_bytes)
if(NOT got_bytes STREQUAL want_bytes)
  message(FATAL_ERROR
    "writing metrics snapshots perturbed the output\n"
    "reference: ${plain_out}\ninstrumented: ${metrics_out}")
endif()

# Single-trajectory mode writes its one final snapshot on the same flag.
set(single_snapshot "${WORK_DIR}/single_metrics.json")
execute_process(
  COMMAND "${OPERB_CLI}" --generate "SerCar:300:7" --no-verify
          --metrics-out "${single_snapshot}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0 OR NOT stdout MATCHES "metrics:")
  message(FATAL_ERROR
    "single-mode metrics run failed (exit ${result})\n${stdout}\n${stderr}")
endif()
check_snapshot("${single_snapshot}" "pipeline.points_in")

# Flag-contract negatives keep their documented exit codes.

# An unwritable --metrics-out path is caught up front (exit 2), before
# any work runs.
execute_process(
  COMMAND "${OPERB_CLI}" --generate "SerCar:300:7"
          --metrics-out "${WORK_DIR}/no_such_dir/metrics.json"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "unwritable --metrics-out: expected exit 2, got ${result}\n${stderr}")
endif()

# --metrics-every without --metrics-out is a usage error (exit 2).
execute_process(
  COMMAND "${OPERB_CLI}" --group-by-id --generate "SerCar:300:7"
          --metrics-every 100
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "--metrics-every without --metrics-out: expected exit 2, got "
    "${result}\n${stderr}")
endif()

# Periodic cadence needs the engine loop: --metrics-every in
# single-trajectory mode is a usage error (exit 2).
execute_process(
  COMMAND "${OPERB_CLI}" --generate "SerCar:300:7"
          --metrics-out "${WORK_DIR}/single_periodic.json"
          --metrics-every 100
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "--metrics-every without --group-by-id: expected exit 2, got "
    "${result}\n${stderr}")
endif()

message(STATUS
  "operb_cli metrics snapshot smoke passed (group + single snapshots "
  "parse, output transparency holds, 3 negatives)")
