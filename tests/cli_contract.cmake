# CLI contract: every tool and bench binary parses its command line with
# util/flags, so each one answers --help with exit 0 and rejects an
# unknown flag or a malformed number with its usage exit code (1 for
# hars_fuzz, whose 2 means "new failures found"; 2 for the rest).
#
#   cmake -DBIN_DIR=<build dir> -P tests/cli_contract.cmake

if(NOT BIN_DIR)
  message(FATAL_ERROR "pass -DBIN_DIR=<directory holding the binaries>")
endif()

set(failures "")

# expect(CODE TOOL ARGS...): runs BIN_DIR/TOOL ARGS... and records a
# failure unless it exits with CODE. The timeout turns a binary that
# ignores its flags and starts real work into a failure, not a hang.
function(expect code tool)
  execute_process(COMMAND "${BIN_DIR}/${tool}" ${ARGN} TIMEOUT 120
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    string(JOIN " " command ${tool} ${ARGN})
    string(STRIP "${err}" err)
    set(failures "${failures}\n  ${command}: exit ${rc}, want ${code} (${err})"
        PARENT_SCOPE)
  endif()
endfunction()

# TOOL USAGE_CODE NUMERIC_FLAG (- when the tool has no numeric flag).
# --duration is the malformed-number probe wherever the tool has it.
set(tools
  hars_sim 2 --duration
  hars_client 2 --duration
  hars_agentd 2 --duration
  hars_simd 2 --jobs
  hars_fuzz 1 --duration
  docs_check 2 -
  bench_report 2 -
  fuzz_suite 2 --duration
  scenario_suite 2 --duration
  tick_bench 2 --duration
  ablation_adaptation 2 --jobs
  ablation_memory_bound 2 --jobs
  ablation_os_scheduler 2 --jobs
  ablation_predictor 2 --jobs
  ablation_ratio 2 --jobs
  ablation_schedulers 2 --jobs
  ablation_search_algorithms 2 --jobs
  fig5_1_default_target 2 --jobs
  fig5_2_high_target 2 --jobs
  fig5_3_distance_sweep 2 --jobs
  fig5_4_multiapp 2 --jobs
  fig5_5_6_7_traces 2 --jobs
  table3_1_assignment 2 --jobs
  table4_3_freeze 2 --jobs
)

list(LENGTH tools count)
math(EXPR last "${count} - 1")
foreach(i RANGE 0 ${last} 3)
  math(EXPR code_at "${i} + 1")
  math(EXPR flag_at "${i} + 2")
  list(GET tools ${i} tool)
  list(GET tools ${code_at} code)
  list(GET tools ${flag_at} numeric)
  expect(0 ${tool} --help)
  expect(${code} ${tool} --no-such-flag)
  if(NOT numeric STREQUAL "-")
    expect(${code} ${tool} ${numeric} 5x)
    expect(${code} ${tool} ${numeric}=5x)
  endif()
endforeach()

# Specific hars_sim promises: `--name=value` spelling (README), a
# repeated run-mode scalar is rejected rather than silently overwritten,
# a whole-token number check on unsigned flags, and the builder still
# rejects tuning a version that ignores it.
expect(0 hars_sim --version=HARS-I --duration 5)
expect(2 hars_sim --version HARS-E --version HARS-I --duration 5)
expect(2 hars_sim --seed 12abc --duration 5)
expect(2 hars_sim --threads 4x --duration 5)
expect(2 hars_sim --scheduler interleaved --version Baseline --duration 5)
expect(2 hars_sim sweep --trace t.csv --duration 5)
expect(2 hars_sim --csv out.csv --duration 5)
expect(2 hars_client cancel)

if(failures)
  message(FATAL_ERROR "CLI contract violated:${failures}")
endif()
