# tests/cli_analyze_golden.cmake - `wisp --analyze --json` golden check.
#
# Runs the analyzer over every `wisp --list` item, every module under
# tests/corpus/ and tests/data/must-recurse.wasm, one JSON line each, writes
# the result to <workdir>/analyze-golden.jsonl and requires it to be
# byte-identical to tests/data/analyze-golden.jsonl. Invoked by ctest as:
#   cmake -DWISP_BIN=<wisp> -DWISP_WORKDIR=<dir> -P cli_analyze_golden.cmake
#
# When an analyzer change is meant to move the output, run this test and
# copy the fresh file over the golden:
#   cp <build>/analyze-golden.jsonl tests/data/analyze-golden.jsonl

if(NOT WISP_BIN)
  message(FATAL_ERROR "pass -DWISP_BIN=<path to the wisp binary>")
endif()
if(NOT WISP_WORKDIR)
  message(FATAL_ERROR "pass -DWISP_WORKDIR=<scratch directory>")
endif()

get_filename_component(HERE ${CMAKE_SCRIPT_MODE_FILE} DIRECTORY)
get_filename_component(ROOT ${HERE} DIRECTORY)
set(GOLDEN ${HERE}/data/analyze-golden.jsonl)
set(FRESH ${WISP_WORKDIR}/analyze-golden.jsonl)

execute_process(
  COMMAND ${WISP_BIN} --list
  OUTPUT_VARIABLE LIST_OUT
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "wisp --list exited ${RC}")
endif()
string(REPLACE "\n" ";" LINES "${LIST_OUT}")
set(MODULES "")
foreach(line IN LISTS LINES)
  if(line MATCHES "^([^ ]+) ")
    list(APPEND MODULES ${CMAKE_MATCH_1})
  endif()
endforeach()

# Paths are relative to the source root, so the golden names modules the
# same way in every checkout.
file(GLOB CORPUS RELATIVE ${ROOT} ${ROOT}/tests/corpus/*.wasm)
list(SORT CORPUS)
list(APPEND MODULES ${CORPUS} tests/data/must-recurse.wasm)

set(JSONL "")
foreach(item IN LISTS MODULES)
  execute_process(
    COMMAND ${WISP_BIN} --analyze --json ${item}
    WORKING_DIRECTORY ${ROOT}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  # Exit 1 means a lint fired; the JSON line is still the artifact.
  if(NOT (RC EQUAL 0 OR RC EQUAL 1) OR NOT OUT MATCHES "^{\"module\":")
    message(FATAL_ERROR
      "wisp --analyze --json ${item} failed (rc=${RC}):\n${OUT}${ERR}")
  endif()
  string(APPEND JSONL "${OUT}")
endforeach()
file(WRITE ${FRESH} "${JSONL}")

list(LENGTH MODULES N)
if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "missing golden ${GOLDEN}; fresh output is ${FRESH}")
endif()
file(READ ${GOLDEN} WANT)
if(NOT JSONL STREQUAL WANT)
  message(FATAL_ERROR
    "--analyze --json output differs from ${GOLDEN} over ${N} modules.\n"
    "Compare: diff ${GOLDEN} ${FRESH}\n"
    "If the change is intended: cp ${FRESH} ${GOLDEN}")
endif()
message(STATUS "cli_analyze_golden: ${N} modules match the golden")
