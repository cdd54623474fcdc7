# Runs the prove suite and diffs the fresh report against the committed
# BENCH_figure11.json baseline (the check_bench_regression CTest). A
# nonzero `pec report diff` exit — proved-set shrinkage, a rule past the
# 3x + 50ms time budget, an ATP query blow-up, or schema drift — fails
# the test. Regenerate the baseline with
#   bench_figure11 --pec-json=BENCH_figure11.json
#
# Usage: cmake -DPEC_BIN=... -DBASELINE=... -DWORK_DIR=... -P this-file
foreach(Var PEC_BIN BASELINE WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_bench_regression: ${Var} not set")
  endif()
endforeach()

# The fresh run is pinned to --jobs 1, the configuration the baseline was
# recorded with. Per-rule query counts do not depend on --jobs (each rule
# runs on one thread), so this pins only the wall-clock budgets.
set(Fresh "${WORK_DIR}/bench_regression_fresh.json")
execute_process(
  COMMAND ${PEC_BIN} prove-suite --jobs 1 --report json
  OUTPUT_FILE ${Fresh}
  ERROR_VARIABLE ProveErr
  RESULT_VARIABLE ProveExit)
if(NOT ProveExit EQUAL 0)
  message(FATAL_ERROR
          "pec prove-suite failed (exit ${ProveExit}): ${ProveErr}")
endif()

# Besides the per-rule wall-clock and total-query budgets, gate the
# strengthening hot path (time factor 3 + 50ms slack, query factor 2 + 8
# slack): the incremental solver exists to keep it cheap, and a
# regression there can hide behind savings elsewhere in the rule. The v4
# metrics section adds tail-latency gates on the per-purpose ATP query
# histograms: a p50/p99 only regresses when it exceeds BOTH the factor
# and the absolute slack (generous factors — CI wall-clock is noisy, and
# the per-rule budgets above already catch sustained slowdowns; this
# gate exists for order-of-magnitude tail blow-ups).
execute_process(
  COMMAND ${PEC_BIN} report diff ${BASELINE} ${Fresh} --time-tolerance 3
          --strengthening-time-tolerance 3 --strengthening-time-slack-us 50000
          --strengthening-query-tolerance 2 --strengthening-query-slack 8
          --p50-tolerance 4 --p50-slack-us 20000
          --p99-tolerance 4 --p99-slack-us 100000
  RESULT_VARIABLE DiffExit)
if(NOT DiffExit EQUAL 0)
  message(FATAL_ERROR
          "benchmark regression against ${BASELINE} (pec report diff exit "
          "${DiffExit}); see the REGRESSION lines above. If the change is "
          "intentional, regenerate the baseline with "
          "bench_figure11 --pec-json=BENCH_figure11.json")
endif()
