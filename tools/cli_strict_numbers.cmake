# Numeric command-line flags parse strictly: a malformed or
# out-of-range value exits 2, names the flag, and runs nothing.
#
#   cmake -DCLIENT=vcoma_client -DSIM=vcoma_sim -DWORK_DIR=dir \
#         -P cli_strict_numbers.cmake

file(REMOVE_RECURSE ${WORK_DIR})
# Should a regression let a config run, keep its cache out of the tree.
set(ENV{VCOMA_CACHE_DIR} ${WORK_DIR}/cache)

function(expect_usage_error flag)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected 2")
    endif()
    if(NOT err MATCHES "${flag}")
        message(FATAL_ERROR "'${ARGN}' did not name ${flag}: ${err}")
    endif()
endfunction()

expect_usage_error(--entries ${CLIENT} direct --workload FFT
    --scale 0.01 --entries 8x --out-dir ${WORK_DIR}/sheets)
file(GLOB sheets ${WORK_DIR}/sheets/*)
if(sheets)
    message(FATAL_ERROR "a rejected sweep wrote sheets: ${sheets}")
endif()

expect_usage_error(--entries ${SIM} --entries -1)
expect_usage_error(--entries ${SIM} --entries 4294967304)
expect_usage_error(--nodes ${SIM} --nodes 4abc)
expect_usage_error(--scale ${SIM} --scale 0.01x)
expect_usage_error(--seed ${CLIENT} direct --seed "" --out-dir ${WORK_DIR}/s)
