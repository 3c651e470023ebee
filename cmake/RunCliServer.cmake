# Daemon round-trip smoke for operb_server + operb_cli --connect, run
# via `cmake -P` from ctest. Expects -DOPERB_SERVER=<daemon binary>,
# -DOPERB_CLI=<cli binary> and -DWORK_DIR=<scratch dir>. POSIX-only
# (backgrounds the daemon through `sh`), like the CI runners.
#
# The acceptance loop: for every golden synthetic profile, a fresh
# daemon on an ephemeral port ingests the golden feed and must answer
# the all-covering window query byte-identically to the offline
# single-process run — with NOTHING sealed (--seal-interval 0: the
# answer comes from the read-your-writes merge of overlay + in-flight
# engine tails), again after --server-seal, and once more offline from
# the daemon's own store after a graceful --shutdown. A SIGTERM
# kill-during-ingest pass (store must reopen) and the exit-code
# negatives ride along.

if(NOT OPERB_SERVER OR NOT OPERB_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DOPERB_SERVER=... -DOPERB_CLI=... -DWORK_DIR=... "
    "-P RunCliServer.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Backgrounds the daemon via sh (execute_process itself always waits),
# polls the atomically-written port file, and returns the bound port.
function(start_server dir extra_args out_port)
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND sh -c "exec '${OPERB_SERVER}' --store '${dir}/store' \
--port-file '${dir}/port' ${extra_args} > '${dir}/server.log' 2>&1 & \
echo $! > '${dir}/pid'"
    RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "cannot launch ${OPERB_SERVER} in ${dir}")
  endif()
  set(port "")
  foreach(attempt RANGE 100)
    if(EXISTS "${dir}/port")
      file(READ "${dir}/port" port)
      string(STRIP "${port}" port)
      if(NOT port STREQUAL "")
        break()
      endif()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  endforeach()
  if(port STREQUAL "")
    file(READ "${dir}/server.log" log)
    message(FATAL_ERROR "daemon in ${dir} never wrote its port file\n${log}")
  endif()
  set(${out_port} "${port}" PARENT_SCOPE)
endfunction()

# Waits (<= ~10 s) for the daemon backgrounded in `dir` to exit.
function(wait_server dir)
  foreach(attempt RANGE 100)
    execute_process(
      COMMAND sh -c "kill -0 $(cat '${dir}/pid') 2>/dev/null"
      RESULT_VARIABLE alive)
    if(NOT alive EQUAL 0)
      return()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  endforeach()
  file(READ "${dir}/server.log" log)
  message(FATAL_ERROR "daemon in ${dir} did not exit\n${log}")
endfunction()

function(check_same label a b)
  file(READ "${a}" a_bytes)
  file(READ "${b}" b_bytes)
  if(NOT a_bytes STREQUAL b_bytes)
    message(FATAL_ERROR
      "${label}: not byte-identical\nwant: ${a}\ngot:  ${b}")
  endif()
endfunction()

set(profiles Taxi Truck SerCar GeoLife)
set(window --window -1e9,-1e9,1e9,1e9)

foreach(profile IN LISTS profiles)
  set(dir "${WORK_DIR}/${profile}")
  set(feed --generate "${profile}:300:20170401" --objects 8)

  # Offline oracle: the same feed through the same engine in one
  # process, every object finished at end-of-stream.
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${OPERB_CLI}" --group-by-id ${feed}
            --spec OPERB:zeta=30 --no-verify --output "${dir}/offline.csv"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
      "${profile}: offline oracle failed (exit ${result})\n${stderr}")
  endif()

  # --seal-interval 0: nothing is sealed until we say so, so the live
  # query below is answered purely from the overlay + in-flight tails.
  start_server("${dir}" "--spec OPERB:zeta=30 --seal-interval 0" port)

  execute_process(
    COMMAND "${OPERB_CLI}" --connect "127.0.0.1:${port}" ${feed}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
      "${profile}: connect ingest failed (exit ${result})\n${stderr}")
  endif()

  execute_process(
    COMMAND "${OPERB_CLI}" --connect "127.0.0.1:${port}" ${window}
            --output "${dir}/live.csv"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
      "${profile}: live query failed (exit ${result})\n${stderr}")
  endif()
  check_same("${profile}: un-sealed live query vs offline"
             "${dir}/offline.csv" "${dir}/live.csv")

  execute_process(
    COMMAND "${OPERB_CLI}" --connect "127.0.0.1:${port}" --server-seal
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0 OR NOT stdout MATCHES "sealed:")
    message(FATAL_ERROR
      "${profile}: --server-seal failed (exit ${result})\n${stderr}")
  endif()
  execute_process(
    COMMAND "${OPERB_CLI}" --connect "127.0.0.1:${port}" ${window}
            --output "${dir}/sealed.csv"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
      "${profile}: post-seal query failed (exit ${result})\n${stderr}")
  endif()
  check_same("${profile}: post-seal query vs offline"
             "${dir}/offline.csv" "${dir}/sealed.csv")

  # NotFound exit-code negative (needs a live daemon with data): a
  # position query far outside every stored interval is exit 1.
  if(profile STREQUAL "SerCar")
    execute_process(
      COMMAND "${OPERB_CLI}" --connect "127.0.0.1:${port}"
              --object 0 --at 1e17
      RESULT_VARIABLE result
      OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
    if(NOT result EQUAL 1)
      message(FATAL_ERROR
        "uncovered --at over --connect: expected exit 1, got "
        "${result}\n${stdout}\n${stderr}")
    endif()
  endif()

  execute_process(
    COMMAND "${OPERB_CLI}" --connect "127.0.0.1:${port}" --shutdown
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
      "${profile}: --shutdown failed (exit ${result})\n${stderr}")
  endif()
  wait_server("${dir}")

  # The daemon's own store, served offline, still answers identically.
  execute_process(
    COMMAND "${OPERB_CLI}" --query "${dir}/store" ${window}
            --output "${dir}/post.csv"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
      "${profile}: post-shutdown store query failed (exit "
      "${result})\n${stderr}")
  endif()
  check_same("${profile}: post-shutdown store vs offline"
             "${dir}/offline.csv" "${dir}/post.csv")
endforeach()

# SIGTERM mid-ingest: a big feed is still streaming in when the daemon
# is told to die. The graceful path must drain, seal and leave a store
# that reopens (content is whatever made it in — not compared).
set(dir "${WORK_DIR}/sigterm")
start_server("${dir}" "--spec OPERB:zeta=30 --seal-interval 0.05" port)
execute_process(
  COMMAND sh -c "'${OPERB_CLI}' --connect 127.0.0.1:${port} \
--generate SerCar:2000:7 --objects 40 > '${dir}/ingest.log' 2>&1 &"
  RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "sigterm: cannot launch background ingest")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.3)
execute_process(COMMAND sh -c "kill -TERM $(cat '${dir}/pid')")
wait_server("${dir}")
execute_process(
  COMMAND "${OPERB_CLI}" --query "${dir}/store" ${window}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  file(READ "${dir}/server.log" log)
  message(FATAL_ERROR
    "sigterm: store did not reopen after kill-during-ingest (exit "
    "${result})\n${stderr}\n${log}")
endif()

# Exit-code negatives without a daemon.
# Nothing listens: connect failure is the documented I/O exit 3.
execute_process(
  COMMAND "${OPERB_CLI}" --connect 127.0.0.1:1 --stats
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT result EQUAL 3)
  message(FATAL_ERROR
    "connect refused: expected exit 3, got ${result}\n${stderr}")
endif()
# --connect excludes every local-store/engine flag: usage exit 2.
execute_process(
  COMMAND "${OPERB_CLI}" --connect 127.0.0.1:1 --store-out x.store
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "--connect + --store-out: expected exit 2, got ${result}\n${stderr}")
endif()
# Server-only flags require --connect: usage exit 2.
execute_process(
  COMMAND "${OPERB_CLI}" --server-seal
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "--server-seal without --connect: expected exit 2, got "
    "${result}\n${stderr}")
endif()

# operb_server's own flags: a bad value, an unknown flag, a trailing
# --store without its value and a missing --store each exit 2 with a
# diagnostic before any daemon starts. The timeout turns a wrongly
# accepted value into a failure instead of a hang.
function(expect_server_usage label)
  execute_process(
    COMMAND "${OPERB_SERVER}" ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
    TIMEOUT 10)
  if(NOT result EQUAL 2 OR stderr STREQUAL "")
    message(FATAL_ERROR
      "operb_server ${label}: expected exit 2 and a diagnostic, got "
      "'${result}'\n${stdout}\n${stderr}")
  endif()
endfunction()
set(store --store "${WORK_DIR}/negative.store")
expect_server_usage("--port 70000" ${store} --port 70000)
expect_server_usage("--threads 0" ${store} --threads 0)
expect_server_usage("--ring-capacity 0" ${store} --ring-capacity 0)
expect_server_usage("--store-shards 70000" ${store} --store-shards 70000)
expect_server_usage("--seal-interval -1" ${store} --seal-interval -1)
expect_server_usage("--seal-interval nan" ${store} --seal-interval nan)
expect_server_usage("--seal-interval 1x" ${store} --seal-interval 1x)
expect_server_usage("--wibble" ${store} --wibble)
expect_server_usage("trailing --store" --port 0 --store)
expect_server_usage("missing --store" --port 0)

# --help prints the usage and exits 0, for both tools.
foreach(tool "${OPERB_CLI}" "${OPERB_SERVER}")
  execute_process(
    COMMAND "${tool}" --help
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
    TIMEOUT 10)
  if(NOT result EQUAL 0 OR NOT stdout MATCHES "this text")
    message(FATAL_ERROR
      "${tool} --help: expected exit 0 and the usage, got "
      "'${result}'\n${stdout}\n${stderr}")
  endif()
endforeach()

message(STATUS
  "operb_server smoke passed (4 profiles x {live,sealed,post-shutdown} "
  "byte-identity + SIGTERM reopen + 13 exit-code negatives + 2 --help)")
