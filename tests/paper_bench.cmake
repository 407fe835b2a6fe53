# Runs one paper bench in an empty directory and compares its stdout and
# every file it writes there, byte for byte, with the goldens in
# GOLDEN_DIR (stdout.txt plus one file per CSV the bench writes).
#
#   cmake -DBENCH=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir> -P paper_bench.cmake
#
# On a mismatch the fresh outputs stay in WORK_DIR; accepting them as
# the new goldens is a copy of WORK_DIR/stdout.txt and WORK_DIR/cwd/*.

foreach(var BENCH GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_bench.cmake: ${var} is not set")
  endif()
endforeach()

set(cwd "${WORK_DIR}/cwd")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${cwd}")

execute_process(COMMAND "${BENCH}"
  WORKING_DIRECTORY "${cwd}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}\n${err}")
endif()

file(GLOB golden_files RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*")
list(REMOVE_ITEM golden_files stdout.txt)
file(GLOB written RELATIVE "${cwd}" "${cwd}/*")
list(SORT golden_files)
list(SORT written)
if(NOT golden_files STREQUAL written)
  message(FATAL_ERROR "${BENCH} wrote [${written}] into its working "
    "directory; the goldens in ${GOLDEN_DIR} are [${golden_files}]")
endif()

set(mismatched "")
function(expect_same golden fresh)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${fresh}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    set(mismatched "${mismatched}\n  ${fresh} differs from ${golden}" PARENT_SCOPE)
  endif()
endfunction()
expect_same("${GOLDEN_DIR}/stdout.txt" "${WORK_DIR}/stdout.txt")
foreach(f IN LISTS written)
  expect_same("${GOLDEN_DIR}/${f}" "${cwd}/${f}")
endforeach()
if(mismatched)
  message(FATAL_ERROR "paper bench output changed:${mismatched}")
endif()
