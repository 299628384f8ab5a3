# Numeric command-line flags parse strictly: a malformed or
# out-of-range value exits 2, names the flag, and runs nothing. So do
# an unknown scheme (the error lists the registry's spellings) and a
# `run` that names more than one config.
#
#   cmake -DCLIENT=vcoma_client -DWORK_DIR=dir -P cli_strict_numbers.cmake

file(REMOVE_RECURSE ${WORK_DIR})
# Should a regression let a config run, keep its cache out of the tree.
set(ENV{VCOMA_CACHE_DIR} ${WORK_DIR}/cache)

function(expect_usage_error pattern)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected 2")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR "'${ARGN}' did not name ${pattern}: ${err}")
    endif()
endfunction()

set(bad_scheme "unknown scheme 'BOGUS'; accepted: L0 L1 L2 L3 VCOMA")
expect_usage_error(--entries ${CLIENT} direct --workload FFT
    --scale 0.01 --entries 8x --out-dir ${WORK_DIR}/sheets)
expect_usage_error("${bad_scheme}" ${CLIENT} direct --workload FFT
    --scale 0.01 --schemes L0,BOGUS --out-dir ${WORK_DIR}/sheets)
file(GLOB sheets ${WORK_DIR}/sheets/*)
if(sheets)
    message(FATAL_ERROR "a rejected sweep wrote sheets: ${sheets}")
endif()

expect_usage_error(--entries ${CLIENT} run --entries -1)
expect_usage_error(--entries ${CLIENT} run --entries 4294967304)
expect_usage_error(--nodes ${CLIENT} run --nodes 4abc)
expect_usage_error(--scale ${CLIENT} run --scale 0.01x)
expect_usage_error("${bad_scheme}" ${CLIENT} run --scheme BOGUS)
expect_usage_error("one config" ${CLIENT} run --workloads FFT,RADIX)
expect_usage_error("one config" ${CLIENT} run --schemes L0,L3)
expect_usage_error(--seed ${CLIENT} direct --seed "" --out-dir ${WORK_DIR}/s)
