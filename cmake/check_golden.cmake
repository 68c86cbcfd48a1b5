# Run a bench and require its --stats-json output to hash to a
# committed SHA-256 (tests/golden/*.sha256). The digest pins simulated
# behaviour across commits: any change to cycle counts, stall
# attribution or traffic statistics changes the hash. Usage:
#
#   cmake "-DCMD=fig4_memcpy --quick" -DOUT=path/stats.json
#         -DGOLDEN=tests/golden/fig4_memcpy_quick.sha256
#         -P check_golden.cmake

if(NOT DEFINED CMD OR NOT DEFINED OUT OR NOT DEFINED GOLDEN)
    message(FATAL_ERROR
        "check_golden.cmake needs -DCMD=... -DOUT=... -DGOLDEN=...")
endif()

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd_list} --stats-json=${OUT}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command [${CMD} --stats-json=${OUT}] exited "
        "with '${rc}'\nstderr:\n${err}")
endif()

file(SHA256 "${OUT}" actual)
file(STRINGS "${GOLDEN}" golden LIMIT_COUNT 1)
string(STRIP "${golden}" golden)

if(NOT actual STREQUAL golden)
    message(FATAL_ERROR
        "stats digest differs from the committed golden value\n"
        "  golden: ${golden}  (${GOLDEN})\n"
        "  actual: ${actual}  (${OUT})\n"
        "If the behaviour change is intended, regenerate with:\n"
        "  ${CMD} --stats-json=${OUT} && "
        "sha256sum ${OUT} | cut -d' ' -f1 > ${GOLDEN}")
endif()
