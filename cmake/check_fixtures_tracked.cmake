# Fail when the repository's ignore rules would drop a test fixture,
# so a fixture that `git add -A` silently skips (and a fresh clone then
# lacks) is named at test time instead of surfacing as unrelated tool
# failures. Prints "SKIP:" outside a git work tree (source tarballs),
# which the test maps to a skip. Usage:
#
#   cmake -DGIT=/usr/bin/git -DDIR=tools/testdata
#         -P check_fixtures_tracked.cmake

if(NOT DEFINED DIR)
    message(FATAL_ERROR "check_fixtures_tracked.cmake needs -DDIR=...")
endif()

if(NOT GIT)
    message("SKIP: git not found")
    return()
endif()
execute_process(COMMAND ${GIT} rev-parse --is-inside-work-tree
    WORKING_DIRECTORY ${DIR}
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message("SKIP: ${DIR} is not inside a git work tree")
    return()
endif()

file(GLOB fixtures RELATIVE ${DIR} ${DIR}/*)
# --no-index judges every fixture by the ignore rules alone, tracked or
# not: exit 0 lists ignored paths, 1 means none are, 128 is an error.
execute_process(COMMAND ${GIT} check-ignore --no-index ${fixtures}
    WORKING_DIRECTORY ${DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE ignored
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "fixtures in ${DIR} match .gitignore and would "
        "be left out of commits:\n${ignored}")
elseif(NOT rc EQUAL 1)
    message(FATAL_ERROR "git check-ignore exited with '${rc}':\n${err}")
endif()
