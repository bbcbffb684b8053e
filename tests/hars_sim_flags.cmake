# hars_sim flag effects: one ctest per flag (FLAG below) that runs
# hars_sim with the flag and checks what the flag promises — the file it
# writes, the catalogue it prints, or records that differ from the run
# without it. cli_contract checks only that each flag parses.
#
#   cmake -DBIN_DIR=<build dir> -DOUT_DIR=<output dir> -DFLAG=<name>
#         -P tests/hars_sim_flags.cmake

if(NOT BIN_DIR OR NOT OUT_DIR OR NOT FLAG)
  message(FATAL_ERROR "pass -DBIN_DIR=..., -DOUT_DIR=... and -DFLAG=...")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")
set(out "${OUT_DIR}/${FLAG}")

# sim(VAR ARGS...): runs hars_sim ARGS..., fails unless it exits 0, and
# stores its stdout in VAR.
function(sim var)
  execute_process(COMMAND "${BIN_DIR}/hars_sim" ${ARGN} TIMEOUT 120
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT rc STREQUAL "0")
    string(JOIN " " command ${ARGN})
    message(FATAL_ERROR "hars_sim ${command}: exit ${rc}\n${stderr}")
  endif()
  set(${var} "${stdout}" PARENT_SCOPE)
endfunction()

# expect_match(TEXT REGEX WHAT): fails unless TEXT matches REGEX.
function(expect_match text regex what)
  if(NOT text MATCHES "${regex}")
    message(FATAL_ERROR "${FLAG}: ${what} (no match for '${regex}')")
  endif()
endfunction()

# expect_differs(A B WHAT): fails when the two run reports are equal.
function(expect_differs a b what)
  if(a STREQUAL b)
    message(FATAL_ERROR "${FLAG}: ${what}: records equal the default run's")
  endif()
endfunction()

# The first line of FILE.
function(first_line var file)
  file(STRINGS "${file}" lines LIMIT_COUNT 1)
  set(${var} "${lines}" PARENT_SCOPE)
endfunction()

set(run --bench SW --version HARS-E --duration 20)

if(FLAG STREQUAL "list-platforms")
  sim(text --list-platforms)
  foreach(platform exynos5422 sd855 server2x8 manycore4x4)
    expect_match("${text}" "\n${platform} +[0-9]+ +[0-9]+ "
                 "catalogue row for ${platform}")
  endforeach()
elseif(FLAG STREQUAL "list-backends")
  sim(text --list-backends)
  foreach(backend sim mock_linux linux)
    expect_match("${text}" "\n${backend} +[a-z]" "catalogue row for ${backend}")
  endforeach()
elseif(FLAG STREQUAL "sample-ticks")
  # 2000 is the checked-in capture's cadence.
  set(capture --scenario staggered --version MP-HARS-E --duration 12)
  sim(dense ${capture} --capture "${out}.dense.jsonl")
  sim(sparse ${capture} --capture "${out}.sparse.jsonl" --sample-ticks 2000)
  expect_match("${dense}" "\\(1602 samples\\)" "default cadence is 10 ticks")
  expect_match("${sparse}" "\\(10 samples\\)" "2000-tick cadence")
  first_line(meta "${out}.sparse.jsonl")
  expect_match("${meta}" "\"sample_ticks\":2000[,}]" "meta records the cadence")
elseif(FLAG STREQUAL "predictor")
  sim(base ${run})
  sim(kalman ${run} --predictor kalman)
  expect_differs("${base}" "${kalman}" "--predictor kalman")
elseif(FLAG STREQUAL "policy")
  sim(base ${run})
  sim(tabu ${run} --policy tabu)
  expect_differs("${base}" "${tabu}" "--policy tabu")
elseif(FLAG STREQUAL "learn-ratio")
  # Bodytrack's true ratio is far enough from r0 that learning moves it.
  set(bo --bench BO --version HARS-E --duration 60)
  sim(base ${bo})
  sim(learned ${bo} --learn-ratio)
  expect_differs("${base}" "${learned}" "--learn-ratio")
elseif(FLAG STREQUAL "metrics-csv")
  sim(text ${run} --metrics-csv "${out}.csv")
  expect_match("${text}" "metrics csv +[^\n]*${FLAG}.csv" "report line")
  file(READ "${out}.csv" csv)
  expect_match("${csv}" "^name,kind,value,count,sum,p50,p90,p99\n" "header")
  expect_match("${csv}" "\nengine.ticks,counter,[1-9][0-9]*," "tick counter")
elseif(FLAG STREQUAL "prom")
  sim(text ${run} --prom "${out}.prom")
  expect_match("${text}" "prometheus +[^\n]*${FLAG}.prom" "report line")
  file(READ "${out}.prom" prom)
  expect_match("${prom}" "# TYPE hars_engine_ticks counter\nhars_engine_ticks [1-9]"
               "tick counter")
elseif(FLAG STREQUAL "trace-spans")
  # A scenario: its spawn calibrations run before the measured span (on
  # set-up helper threads where the host has several), so their spans
  # land in the same file. Telemetry must not move a record.
  set(churn --gen-scenario churn --gen-seed 3 --version MP-HARS-E
            --platform sd855 --duration 10)
  sim(base ${churn})
  sim(traced ${churn} --trace-spans "${out}.json")
  string(REGEX REPLACE "trace spans +[^\n]*\n" "" traced_records "${traced}")
  if(NOT traced_records STREQUAL base)
    message(FATAL_ERROR "${FLAG}: records differ from the untraced run")
  endif()
  file(READ "${out}.json" trace)
  expect_match("${trace}" "^{\"traceEvents\":\\[" "Chrome trace-event JSON")
  expect_match("${trace}" "\"name\":\"step\"" "step() tick spans")
  expect_match("${trace}" "\"name\":\"quiet_span\"[^}]*\"args\":{\"ticks\":[1-9]"
               "quiet spans with their tick counts")
elseif(FLAG STREQUAL "jsonl")
  sim(text sweep --bench SW --bench BO --version Baseline --version HARS-E
       --duration 5 --jsonl "${out}.jsonl")
  expect_match("${text}" "jsonl +[^\n]*${FLAG}.jsonl" "report line")
  file(STRINGS "${out}.jsonl" records)
  list(LENGTH records count)
  if(NOT count EQUAL 4)
    message(FATAL_ERROR "${FLAG}: ${count} records, want one per case (4)")
  endif()
  set(case 0)
  foreach(record IN LISTS records)
    expect_match("${record}" "^{\"case\":${case},\"bench\":\"(SW|BO)\",\"variant\":\"(Baseline|HARS-E)\","
                 "record ${case}")
    expect_match("${record}" "\"perf_per_watt\":[0-9]" "record ${case} metrics")
    math(EXPR case "${case} + 1")
  endforeach()
else()
  message(FATAL_ERROR "unknown FLAG '${FLAG}'")
endif()
