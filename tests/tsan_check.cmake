# Thread-sanitizer tier (`ctest -C tsan -L tsan` from a configured
# build tree): configures the repository's "tsan" preset (-O1 -g,
# -fsanitize=thread), builds it, and runs the suites that exercise the
# process-wide worker pool — the multi-core chip engines
# (Chip./ChipParallel.), the scheduler output pins (SchedulerPin.), the
# standalone pool tests (Parallel.), and a differential sample — with
# VISA_THREADS raised so the pool really spawns workers. Any data-race report aborts the inner ctest and
# fails this test.
#
# Expects -DSOURCE_DIR=... (the repository root).

if(NOT DEFINED SOURCE_DIR)
    message(FATAL_ERROR "tsan_check.cmake: SOURCE_DIR not set")
endif()

set(build_dir "${SOURCE_DIR}/build-tsan")

execute_process(
    COMMAND "${CMAKE_COMMAND}" --preset tsan
    WORKING_DIRECTORY "${SOURCE_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "configure --preset tsan failed (rc=${rc}):\n"
        "${out}\n${err}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${build_dir}" --parallel
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tsan build failed (rc=${rc}):\n${out}\n${err}")
endif()

# A race report must fail the run, not scroll past.
set(ENV{TSAN_OPTIONS} "halt_on_error=1")
# The determinism tests pin VISA_THREADS per case; everything else in
# the filter runs with a thread pool wide enough to interleave for
# real even on a small host.
set(ENV{VISA_THREADS} "8")

execute_process(
    COMMAND "${CMAKE_CTEST_COMMAND}"
            # The threaded surfaces: the chip suites (epoch-buffered
            # free run + partitioned scheduler + paired detector), the
            # scheduler output pins (partitioned rows at 1 and 8
            # threads), the worker-pool unit tests (ParallelFor),
            # concurrent callers of the set-up cache, and the
            # differential_nocache sample (500 programs; the full
            # 2000-program run is too slow under TSan's ~10x
            # overhead). "bench_gate" stays out (wall-clock thresholds
            # are meaningless when sanitized).
            -R "chip_suite|Chip\\.|ChipParallel\\.|SchedulerPin\\.|ParallelFor\\.|RigPin\\.|Experiment\\.CachedSetup|differential_nocache"
            --output-on-failure
    WORKING_DIRECTORY "${build_dir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "tsan chip/parallel suite failed (rc=${rc}):\n${out}\n${err}")
endif()

message(STATUS "tsan_check: thread-sanitized chip/parallel suite passed")
