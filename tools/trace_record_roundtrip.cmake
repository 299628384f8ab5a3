# vcoma_sim --record publishes the packed trace of exactly the run it
# describes: replaying it as --workload TRACE:FILE reproduces the live
# sheet byte for byte, even on RAYTRACE, whose tiles follow lock
# grants. A trace that cannot be published fails the command (exit 1,
# naming the path) and leaves no file behind.
#
#   cmake -DSIM=vcoma_sim -DWORK_DIR=dir -P trace_record_roundtrip.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(config --nodes 8 --scale 0.1 --untimed --scheme L3)

function(simulate expected_rc)
    execute_process(COMMAND ${SIM} ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL expected_rc)
        message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected "
                            "${expected_rc}: ${err}")
    endif()
    set(err "${err}" PARENT_SCOPE)
endfunction()

set(trace ${WORK_DIR}/r.vctrace)
simulate(0 --workload RAYTRACE ${config} --record ${trace}
         --stats-json ${WORK_DIR}/live.jsonl)
simulate(0 --workload TRACE:${trace} ${config}
         --stats-json ${WORK_DIR}/rep.jsonl)
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
foreach(path ${WORK_DIR}/bad/missing/r.vctrace ${WORK_DIR}/bad/dir)
    simulate(1 --workload RAYTRACE ${config} --record ${path})
    string(FIND "${err}" "'${path}'" named)
    if(named EQUAL -1)
        message(FATAL_ERROR "failure did not name '${path}': ${err}")
    endif()
endforeach()
file(GLOB_RECURSE left ${WORK_DIR}/bad/*)
if(left)
    message(FATAL_ERROR "a failed recording left files: ${left}")
endif()
