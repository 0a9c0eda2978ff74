# Numeric CLI flags: every malformed or out-of-range value below must
# stop its tool with the tool's error exit code (1 or 2) and a
# diagnostic that names the flag. An abort (an uncaught conversion
# exception) or a run with some other value fails the check.
#
# Inputs: -DVISA_SIM=<exe> -DVISA_PROF=<exe> -DVISA_FUZZ=<exe>
#         -DBENCH_REPORT=<exe>

foreach(var VISA_SIM VISA_PROF VISA_FUZZ BENCH_REPORT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_flags_check: -D${var}=... is required")
    endif()
endforeach()

set(failures "")

# Run the command in ARGN; it must be rejected with a diagnostic that
# names <flag>.
function(expect_rejected flag)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
    string(REPLACE ";" " " cmd "${ARGN}")
    if(NOT rc MATCHES "^[12]$")
        string(APPEND failures "\n  ${cmd}\n    exit '${rc}': ${err}")
    elseif(NOT err MATCHES "${flag} must be (an integer in|a finite number)")
        string(APPEND failures
            "\n  ${cmd}\n    no diagnostic naming ${flag}: ${err}")
    endif()
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

# Conversions that used to abort.
expect_rejected(--tasks
    ${VISA_SIM} --workload cnt --runtime visa --tasks abc)
expect_rejected(--threads ${VISA_SIM} --workload cnt --threads abc)
expect_rejected(--util ${VISA_SIM} --taskset trio --util abc)
expect_rejected(--trace-buffer
    ${VISA_SIM} --workload cnt --trace-buffer abc --trace-jsonl -)
expect_rejected(--force-miss
    ${VISA_SIM} --taskset trio --force-miss cnt:x)
expect_rejected(--top ${VISA_PROF} --workload cnt --top abc)
expect_rejected(--freq ${VISA_PROF} --workload cnt --freq abc)

# Values that used to run with a value nobody asked for.
expect_rejected(--freq ${VISA_SIM} --workload cnt --freq 1000x)
expect_rejected(--freq ${VISA_SIM} --workload cnt --freq 0)
expect_rejected(--jobs ${VISA_SIM} --taskset trio --jobs 2x)
expect_rejected(--quantum ${VISA_SIM} --taskset trio --quantum -1)
expect_rejected(--deadline
    ${VISA_SIM} --workload cnt --runtime visa --deadline 1e-3x)
expect_rejected(--deadline
    ${VISA_SIM} --workload cnt --runtime visa --deadline nan)
expect_rejected(--tasks
    ${VISA_SIM} --workload cnt --runtime visa --tasks -5)
expect_rejected(--affinity
    ${VISA_SIM} --taskset trio --cores 2 --affinity 0,1x)
expect_rejected(--count ${VISA_FUZZ} --count abc)
expect_rejected(--statements ${VISA_FUZZ} --count 1 --statements x)
expect_rejected(--max-insts ${VISA_FUZZ} --count 1 --max-insts abc)
expect_rejected(--oracle-every ${VISA_FUZZ} --count 1 --oracle-every -1)
expect_rejected(--reps ${BENCH_REPORT} --reps abc)

if(NOT failures STREQUAL "")
    message(FATAL_ERROR "numeric flags not rejected:${failures}")
endif()
message(STATUS "cli_flags_check: every malformed numeric flag rejected")
