# `vcoma_client run --record` publishes the packed trace of exactly
# the run it describes: replaying it as --workload TRACE:FILE
# reproduces the live sheet byte for byte, even on RAYTRACE, whose
# tiles follow lock grants. A trace that cannot be published fails the
# command (exit 1, naming the path), leaves no file behind and appends
# no sheet to --jsonl; so does `vcoma_trace convert` into a missing
# directory.
#
#   cmake -DCLIENT=vcoma_client -DTRACE=vcoma_trace -DWORK_DIR=dir \
#         -P trace_record_roundtrip.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(config --nodes 8 --scale 0.1 --untimed --scheme L3)

function(simulate expected_rc)
    execute_process(COMMAND ${CLIENT} run ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL expected_rc)
        message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected "
                            "${expected_rc}: ${err}")
    endif()
    set(err "${err}" PARENT_SCOPE)
endfunction()

set(trace ${WORK_DIR}/r.vctrace)
simulate(0 --workload RAYTRACE ${config} --record ${trace}
         --jsonl ${WORK_DIR}/live.jsonl)
simulate(0 --workload TRACE:${trace} ${config}
         --jsonl ${WORK_DIR}/rep.jsonl)
file(READ ${WORK_DIR}/live.jsonl live)
file(READ ${WORK_DIR}/rep.jsonl rep)
if(live STREQUAL "")
    message(FATAL_ERROR "the recording run wrote no sheet")
endif()
if(NOT live STREQUAL rep)
    message(FATAL_ERROR "replayed sheet differs from the live one:\n"
                        "${live}\n${rep}")
endif()

# Unwritable: a missing directory (the staging file cannot be made)
# and an existing directory (the finished trace cannot be renamed
# onto it).
file(MAKE_DIRECTORY ${WORK_DIR}/bad/dir)
set(missing ${WORK_DIR}/bad/missing/r.vctrace)
foreach(path ${missing} ${WORK_DIR}/bad/dir)
    set(sheet ${WORK_DIR}/failed.jsonl)
    file(REMOVE ${sheet})
    simulate(1 --workload RAYTRACE ${config} --record ${path}
             --jsonl ${sheet})
    string(FIND "${err}" "'${path}'" named)
    if(named EQUAL -1)
        message(FATAL_ERROR "failure did not name '${path}': ${err}")
    endif()
    if(path STREQUAL missing AND NOT err MATCHES "^[^\n]*\n$")
        # The staging file cannot be made: one error, before the run.
        message(FATAL_ERROR "expected one error line: ${err}")
    endif()
    if(EXISTS ${sheet})
        file(READ ${sheet} lines)
        if(NOT lines STREQUAL "")
            message(FATAL_ERROR "a failed recording wrote a sheet: ${lines}")
        endif()
    endif()
endforeach()
# vcoma_trace convert, the writer's other caller, fails the same way.
file(WRITE ${WORK_DIR}/one.trace "vcoma-trace-v1\nthreads 1\n0 R 4096 1\n")
execute_process(COMMAND ${TRACE} convert ${WORK_DIR}/one.trace ${missing}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "'${missing}'")
    message(FATAL_ERROR "convert to '${missing}' exited ${rc}: ${err}")
endif()
file(GLOB_RECURSE left ${WORK_DIR}/bad/*)
if(left)
    message(FATAL_ERROR "a failed recording left files: ${left}")
endif()
