# Run bench drivers and examples with one malformed flag value each and
# require exit code 2 (ctest `cli_reject_smoke`): a bad count or real must be
# rejected with a message, never clamped, wrapped or left to abort.
# Every call also passes a tiny workload, so a value that slips through
# fails fast on the exit code instead of running a full sweep.
function(expect_rejected)
    execute_process(COMMAND ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "expected exit 2, got '${rc}': ${ARGN}\n${err}")
    endif()
endfunction()

expect_rejected(${FIG01} 20 --jobs 0)
expect_rejected(${FIG01} 20 --jobs=abc)
expect_rejected(${FIG01} 20 --sample-every nan)
expect_rejected(${FIG01} 12x)
expect_rejected(${SCALE} --requests=1 --rate=1.5x)
expect_rejected(${FAULT} 20 --replicas=abc)
expect_rejected(${MICRO} --json=${WORK_DIR}/cli_reject_micro.json --iters=abc)
expect_rejected(${QUICKSTART} 4 12x)
