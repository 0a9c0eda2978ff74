# End-to-end check of the tracing pipeline, run as a ctest entry (and
# therefore also under the ASan/UBSan debug preset):
#
#   1. visa-sim runs a small VISA campaign of TASKS tasks with induced
#      mispredictions at the fig4-style minimum deadline, recording a
#      Chrome trace, a JSONL trace, and a hierarchical stats JSON;
#   2. visa-trace --validate schema-checks both trace formats against
#      the event-kind table;
#   3. visa-trace summarizes the JSONL trace (slack, margins, residency)
#      and must exit cleanly;
#   4. visa-fuzz --inject records a fault-injection demo trace whose
#      fault_inject / fault_detect / recovery_restart events must be
#      present, schema-validate, and show up in the summary's fault
#      section;
#   5. a handcrafted schema-2 file must be rejected with the pointer at
#      re-recording (schema 3 is the only readable format).
#
# Expects -DVISA_SIM=..., -DVISA_TRACE=..., -DVISA_FUZZ=..., -DTASKS=...,
# -DWORK_DIR=...

foreach(var VISA_SIM VISA_TRACE VISA_FUZZ TASKS WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "trace_schema_check.cmake: ${var} not set")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(chrome "${WORK_DIR}/trace.json")
set(jsonl "${WORK_DIR}/trace.jsonl")
set(stats "${WORK_DIR}/stats.json")

execute_process(
    COMMAND "${VISA_SIM}" --runtime visa --workload cnt --tasks ${TASKS}
            --induce-every 7 --deadline min
            --trace "${chrome}" --trace-jsonl "${jsonl}"
            --trace-buffer 4194304 --stats-json "${stats}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "visa-sim failed (rc=${rc}):\n${out}\n${err}")
endif()

foreach(f "${chrome}" "${jsonl}" "${stats}")
    if(NOT EXISTS "${f}")
        message(FATAL_ERROR "visa-sim did not write ${f}")
    endif()
endforeach()

# The fig3/fig4-style regime must actually exercise the VISA machinery:
# checkpoints armed, at least one watchdog recovery, DVS decisions.
file(READ "${jsonl}" trace_text)
foreach(ev checkpoint_arm checkpoint_hit checkpoint_miss watchdog_fire
        simple_mode_enter mode_switch_drain freq_decision freq_change
        task_begin task_end)
    if(NOT trace_text MATCHES "\"ev\":\"${ev}\"")
        message(FATAL_ERROR "trace is missing expected event '${ev}'")
    endif()
endforeach()

foreach(f "${chrome}" "${jsonl}")
    execute_process(
        COMMAND "${VISA_TRACE}" --validate "${f}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "visa-trace --validate ${f} failed (rc=${rc}):\n${out}\n${err}")
    endif()
endforeach()

execute_process(
    COMMAND "${VISA_TRACE}" "${jsonl}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "visa-trace summary failed (rc=${rc}):\n${err}")
endif()
foreach(section "event counts" "checkpoint slack" "frequency residency")
    if(NOT out MATCHES "${section}")
        message(FATAL_ERROR
            "visa-trace summary is missing the '${section}' section:\n${out}")
    endif()
endforeach()

# ---- fault-injection trace (visa-fuzz --inject) ----

set(inj_jsonl "${WORK_DIR}/inject.jsonl")
execute_process(
    COMMAND "${VISA_FUZZ}" --inject reg-bit-flip --count 2 --seed 3
            --trace-jsonl "${inj_jsonl}" --out "${WORK_DIR}/inj_corpus"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "visa-fuzz --inject failed (rc=${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS "${inj_jsonl}")
    message(FATAL_ERROR "visa-fuzz did not write ${inj_jsonl}")
endif()

file(READ "${inj_jsonl}" inj_text)
foreach(ev fault_inject fault_detect recovery_restart)
    if(NOT inj_text MATCHES "\"ev\":\"${ev}\"")
        message(FATAL_ERROR
            "injection trace is missing expected event '${ev}'")
    endif()
endforeach()

execute_process(
    COMMAND "${VISA_TRACE}" --validate "${inj_jsonl}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "visa-trace --validate ${inj_jsonl} failed (rc=${rc}):"
        "\n${out}\n${err}")
endif()

execute_process(
    COMMAND "${VISA_TRACE}" "${inj_jsonl}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "visa-trace fault summary failed (rc=${rc}):\n${err}")
endif()
if(NOT out MATCHES "fault injection / recovery")
    message(FATAL_ERROR
        "visa-trace summary is missing the fault section:\n${out}")
endif()

# ---- pre-v3 files are rejected ----

set(v2_jsonl "${WORK_DIR}/schema2.jsonl")
file(WRITE "${v2_jsonl}"
    "{\"schema\":2}\n"
    "{\"ev\":\"task_begin\",\"cat\":\"task\",\"cycle\":0,"
    "\"task\":0,\"fspec_mhz\":1000,\"frec_mhz\":300,"
    "\"deadline_s\":0.001}\n")
execute_process(
    COMMAND "${VISA_TRACE}" --validate "${v2_jsonl}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR
        "visa-trace --validate accepted a schema-2 file:\n${out}\n${err}")
endif()
if(NOT err MATCHES "re-record with a current visa-sim")
    message(FATAL_ERROR
        "schema-2 rejection lacks the re-record pointer:\n${err}")
endif()

# The stats export must be finite (the guards turn 0/0 into 0).
file(READ "${stats}" stats_text)
if(stats_text MATCHES "nan" OR stats_text MATCHES "inf")
    message(FATAL_ERROR "stats JSON contains non-finite values")
endif()

message(STATUS "trace_schema: all checks passed")
