# Run a bench and require its output to hash to a committed SHA-256
# (tests/golden/*.sha256). By default the hashed output is the bench's
# --stats-json file: the digest pins simulated behaviour across commits,
# so any change to cycle counts, stall attribution or traffic
# statistics changes the hash. With -DSTDOUT=ON the command's stdout is
# written to OUT and hashed instead, which pins what a bench prints
# when it runs no cycles (placement, memory mapping, resource tables).
# Usage:
#
#   cmake "-DCMD=fig4_memcpy --quick" -DOUT=path/stats.json
#         -DGOLDEN=tests/golden/fig4_memcpy_quick.sha256
#         -P check_golden.cmake
#   cmake -DCMD=table2_resources -DOUT=path/stdout.txt -DSTDOUT=ON
#         -DGOLDEN=tests/golden/table2_resources_stdout.sha256
#         -P check_golden.cmake

if(NOT DEFINED CMD OR NOT DEFINED OUT OR NOT DEFINED GOLDEN)
    message(FATAL_ERROR
        "check_golden.cmake needs -DCMD=... -DOUT=... -DGOLDEN=...")
endif()

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
if(STDOUT)
    set(run "${CMD} > ${OUT}")
    execute_process(COMMAND ${cmd_list}
        RESULT_VARIABLE rc
        OUTPUT_FILE ${OUT}
        ERROR_VARIABLE err)
else()
    set(run "${CMD} --stats-json=${OUT}")
    execute_process(COMMAND ${cmd_list} --stats-json=${OUT}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
endif()
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command [${run}] exited "
        "with '${rc}'\nstderr:\n${err}")
endif()

file(SHA256 "${OUT}" actual)
file(STRINGS "${GOLDEN}" golden LIMIT_COUNT 1)
string(STRIP "${golden}" golden)

if(NOT actual STREQUAL golden)
    message(FATAL_ERROR
        "output digest differs from the committed golden value\n"
        "  golden: ${golden}  (${GOLDEN})\n"
        "  actual: ${actual}  (${OUT})\n"
        "If the behaviour change is intended, regenerate with:\n"
        "  ${run} && "
        "sha256sum ${OUT} | cut -d' ' -f1 > ${GOLDEN}")
endif()
