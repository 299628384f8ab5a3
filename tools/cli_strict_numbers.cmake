# Numeric command-line flags parse strictly: a malformed or
# out-of-range value exits 2, names the flag, and runs nothing. So do
# an unknown scheme (the error lists the registry's spellings), a
# `run` that names more than one config, and a `direct` with no
# `--jsonl`, the one place its sheets go; one that cannot be written
# fails the command.
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
    --scale 0.01 --entries 8x --jsonl ${WORK_DIR}/sheets.jsonl)
expect_usage_error("${bad_scheme}" ${CLIENT} direct --workload FFT
    --scale 0.01 --schemes L0,BOGUS --jsonl ${WORK_DIR}/sheets.jsonl)
if(EXISTS ${WORK_DIR}/sheets.jsonl)
    message(FATAL_ERROR "a rejected sweep wrote sheets")
endif()
expect_usage_error("direct needs --jsonl\nusage: vcoma_client"
    ${CLIENT} direct --workload FFT --scale 0.01)
expect_usage_error("unknown option '--out-dir'"
    ${CLIENT} direct --workload FFT --scale 0.01 --out-dir ${WORK_DIR}/d)
if(EXISTS ${WORK_DIR}/d)
    message(FATAL_ERROR "a rejected --out-dir made its directory")
endif()

expect_usage_error(--entries ${CLIENT} run --entries -1)
expect_usage_error(--entries ${CLIENT} run --entries 4294967304)
expect_usage_error(--nodes ${CLIENT} run --nodes 4abc)
expect_usage_error(--scale ${CLIENT} run --scale 0.01x)
expect_usage_error("${bad_scheme}" ${CLIENT} run --scheme BOGUS)
expect_usage_error("one config" ${CLIENT} run --workloads FFT,RADIX)
expect_usage_error("one config" ${CLIENT} run --schemes L0,L3)
expect_usage_error(--seed ${CLIENT} direct --seed "" --jsonl ${WORK_DIR}/s.jsonl)

# The JSONL is the only copy of the sheets, so a sheet that cannot be
# written fails either command (exit 1), never silently.
if(EXISTS /dev/full)
    foreach(command direct run)
        execute_process(COMMAND ${CLIENT} ${command} --workload FFT
            --nodes 4 --scale 0.01 --jsonl /dev/full
            RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
        if(NOT rc EQUAL 1 OR NOT err MATCHES "cannot write '/dev/full'")
            message(FATAL_ERROR
                "${command} with an unwritable --jsonl exited ${rc}: ${err}")
        endif()
    endforeach()
endif()
