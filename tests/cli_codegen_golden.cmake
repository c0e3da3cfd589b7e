# tests/cli_codegen_golden.cmake - per-compiler machine-code golden check.
#
# Runs codegen_golden (tests/codegen_golden.cpp), which prints one line per
# module with one hash per code producer (SPC over its configs, two-pass,
# copy-and-patch, optimizing, threaded IR), writes the result to
# <workdir>/codegen-golden.txt and requires it to be byte-identical to
# tests/data/codegen-golden.txt. Invoked by ctest as:
#   cmake -DWISP_GOLDEN_BIN=<codegen_golden> -DWISP_WORKDIR=<dir>
#         -P cli_codegen_golden.cmake
#
# A refactor of a compiler must leave the golden unchanged. When a change
# is meant to move generated code, run this test and copy the fresh file
# over the golden:
#   cp <build>/codegen-golden.txt tests/data/codegen-golden.txt

if(NOT WISP_GOLDEN_BIN)
  message(FATAL_ERROR "pass -DWISP_GOLDEN_BIN=<path to codegen_golden>")
endif()
if(NOT WISP_WORKDIR)
  message(FATAL_ERROR "pass -DWISP_WORKDIR=<scratch directory>")
endif()

get_filename_component(HERE ${CMAKE_SCRIPT_MODE_FILE} DIRECTORY)
get_filename_component(ROOT ${HERE} DIRECTORY)
set(GOLDEN ${HERE}/data/codegen-golden.txt)
set(FRESH ${WISP_WORKDIR}/codegen-golden.txt)

execute_process(
  COMMAND ${WISP_GOLDEN_BIN} ${ROOT}
  OUTPUT_FILE ${FRESH}
  ERROR_VARIABLE ERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "codegen_golden exited ${RC}:\n${ERR}")
endif()

if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "missing golden ${GOLDEN}; fresh output is ${FRESH}")
endif()
file(READ ${GOLDEN} WANT)
file(READ ${FRESH} GOT)
string(REGEX MATCHALL "\n" LINES "${GOT}")
list(LENGTH LINES N)
if(NOT GOT STREQUAL WANT)
  message(FATAL_ERROR
    "generated code differs from ${GOLDEN} over ${N} modules.\n"
    "Compare: diff ${GOLDEN} ${FRESH}\n"
    "If the change is intended: cp ${FRESH} ${GOLDEN}")
endif()
message(STATUS "cli_codegen_golden: ${N} modules match the golden")
