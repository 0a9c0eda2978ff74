# Byte-for-byte check of one harness's stdout against its recorded
# golden file, run as a ctest entry (one per binary, so `ctest -j`
# spreads them):
#
#   tests/golden/harness/<name>.txt
#
# The harness runs with VISA_TASKS unset, so each figure and table is
# its full-size campaign. A mismatch prints a unified diff. A change
# that moves a figure on purpose re-records the file:
#
#   ./build/bench/fig2_power > tests/golden/harness/fig2_power.txt
#
# Expects -DHARNESS=<binary>, -DGOLDEN=<file>, -DWORK_DIR=<dir>.

foreach(var HARNESS GOLDEN WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "harness_stdout_check.cmake: ${var} not set")
    endif()
endforeach()

unset(ENV{VISA_TASKS})
get_filename_component(name "${HARNESS}" NAME)
file(MAKE_DIRECTORY "${WORK_DIR}")
set(actual "${WORK_DIR}/${name}.txt")

execute_process(
    COMMAND "${HARNESS}"
    RESULT_VARIABLE rc OUTPUT_FILE "${actual}" ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} failed (rc=${rc}):\n${err}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${actual}"
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    # Uncaptured, so the diff lands in the test log as it is.
    execute_process(COMMAND diff -u "${GOLDEN}" "${actual}")
    message(FATAL_ERROR "${name} stdout differs from ${GOLDEN}")
endif()
