# Sanitizer tier (`ctest -C san -L san` from a configured build tree):
# configures the repository's "debug" preset (-O0 -g, ASan + UBSan),
# builds it, and runs the differential fuzzing suite, the end-to-end
# trace pipeline, the assembler suites (its hand-written lexer and
# literal parser), the WCET analyzer suites (its pc-indexed tables,
# packed records and state stack), the WCET table and frequency
# solver suites (the table's row-major spans) and the block
# translation cache suite under the sanitizers.
# Any sanitizer report aborts the inner ctest and fails this test.
#
# Expects -DSOURCE_DIR=... (the repository root).

if(NOT DEFINED SOURCE_DIR)
    message(FATAL_ERROR "san_check.cmake: SOURCE_DIR not set")
endif()

set(build_dir "${SOURCE_DIR}/build-debug")

execute_process(
    COMMAND "${CMAKE_COMMAND}" --preset debug
    WORKING_DIRECTORY "${SOURCE_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "configure --preset debug failed (rc=${rc}):\n"
        "${out}\n${err}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${build_dir}" --parallel
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sanitizer build failed (rc=${rc}):\n${out}\n${err}")
endif()

# halt_on_error is the ASan default; UBSan needs the explicit ask so a
# UB report fails the run instead of scrolling past.
set(ENV{UBSAN_OPTIONS} "halt_on_error=1:print_stacktrace=1")
set(ENV{ASAN_OPTIONS} "detect_leaks=0")

execute_process(
    COMMAND "${CMAKE_CTEST_COMMAND}"
            # "differential" (lower-case) is the 2000-program timing
            # cross-check of the event-driven OooCpu vs its frozen
            # per-cycle reference; "bench_gate" stays out (wall-clock
            # thresholds are meaningless on a sanitized build).
            # "Assembler" also matches AssemblerErrors, AssemblerPin,
            # AssemblerDirectives and Disassembler; "Wcet" matches
            # WcetPin, WcetRobustness, WcetSoundness and the other
            # analyzer suites. "FreqSpec" matches FreqSpecPin (the EQ 2/
            # EQ 4 solvers over the dense WCET table's rows) and
            # "CoreFixture" the WCET table, EQ 1 and solver unit tests.
            # "BlockCache\\." is the whole translation-cache suite: its
            # store-to-code tests drive the invalidation, resync and
            # chained-block pointers.
            -R "Differential|differential|Lockstep|Progen|Oracle|Corpus|Scheduler|trace_schema|prof_suite|Prof\\.|inject_suite|Inject\\.|chip_suite|Chip\\.|Assembler|Wcet|ICacheCat|CfgTest|FreqSpec|CoreFixture|RigPin|BlockCache\\."
            --output-on-failure
    WORKING_DIRECTORY "${build_dir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "sanitized differential suite failed (rc=${rc}):\n${out}\n${err}")
endif()

message(STATUS "san_check: sanitized differential suite passed")
