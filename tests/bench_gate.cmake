# Performance gate: run the bench-report micro benchmarks and campaign
# phases, then compare the load-bearing metrics against the checked-in
# baseline (-DBASELINE, currently BENCH_PR10.json). The gate fails when
# a metric is more than 25% worse than baseline:
#   - OooCpuRun    ns_per_op  (lower is better)
#   - SimpleCpuRun ns_per_op  (lower is better)
#   - visa_campaign sim_mips  (higher is better)
#   - chip_campaign_c4 sim_mips (higher is better; the 4-core chip
#     model sweep — skipped against baselines predating the phase)
#   - chip_parallel_speedup speedup (higher is better; serial vs
#     threaded wall clock of the widest chip campaign — skipped
#     against baselines predating the phase)
#
# math(EXPR) has no floating point, so values compare as milli-unit
# integers (45.559 -> 45559); the "1${frac} - 1000" dance below keeps
# fraction digits with leading zeros ("057") from being parsed as
# octal.
#
# Wall-clock noise on a loaded host can exceed the margins (the bench
# phases are tens of milliseconds, and scheduler/cache interference is
# strictly one-sided — it only ever makes a run *slower*), so the gate
# keeps the best value seen for each metric across up to 5 attempts and
# judges those: each metric independently needs one quiet sample, rather
# than every metric being quiet in the same attempt. The ctest entry is
# RUN_SERIAL so sibling tests do not add contention of our own making.
#
# The report carries host metadata ("host": cpu_model/cores/...). When
# the current host differs from the baseline's recorded host, every
# gate downgrades to a warning: a throughput number recorded on another
# machine bounds nothing on this one. Baselines predating the host
# field gate normally.
#
# The same reasoning covers ambient load: when /proc/loadavg already
# exceeds the core count before the gate's first attempt, the machine
# is contended by work we neither own nor can serialize against, and a
# persisting failure downgrades to a warning rather than flaking the
# suite. A calm start gates normally.
#
# Where it gates: only on the baseline's own host, after a calm start.
# BENCH_PR10.json records "Intel(R) Xeon(R) Processor @ 2.10GHz/1"
# (one CPU). Any other host, a 4-vCPU VM reporting "Intel(R) Xeon(R)
# Processor/4" included, gets warnings from every check, the 2%
# injection ratio included: the test then fails only if bench-report
# itself does.
#
# Inputs: -DBENCH_REPORT=<exe> -DBASELINE=<BENCH_PR*.json> -DWORK_DIR=<dir>
#         [-DINJECT_BASELINE=<BENCH_PR*.json>]
#
# INJECT_BASELINE adds the injection-overhead gate: the fault-injection
# hooks are always compiled in (cpu/fault_port.hh), so OooCpuRun with
# no fault port installed must stay within 2% of the pre-injection
# baseline — the disabled path must be a dead branch, not a tax.
#
# A 2% margin is far below this host's run-to-run wall-clock noise
# (absolute ns/op swings 5-10% with background load), so the overhead
# gate compares a RATIO against a hook-free control benchmark from the
# same report rather than absolute ns/op: OooCpuRun/SimpleCpuRun
# (SimpleCpu never sees a FaultPort). Host slowdown hits numerator and
# denominator of one report together and cancels; measured spread of
# the ratio is well under 1% across load regimes where the absolutes
# move 10%.

foreach(var BENCH_REPORT BASELINE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_gate: -D${var}=... is required")
    endif()
endforeach()

# Decimal string -> milli-unit integer ("45.559" -> 45559, "17" -> 17000).
function(to_milli value out)
    if(value MATCHES "^([0-9]+)\\.([0-9]+)$")
        set(int_part ${CMAKE_MATCH_1})
        string(SUBSTRING "${CMAKE_MATCH_2}000" 0 3 frac)
        math(EXPR milli "${int_part} * 1000 + 1${frac} - 1000")
    elseif(value MATCHES "^[0-9]+$")
        math(EXPR milli "${value} * 1000")
    else()
        message(FATAL_ERROR "bench_gate: unparseable metric value '${value}'")
    endif()
    set(${out} ${milli} PARENT_SCOPE)
endfunction()

# Fetch <key> of the entry named <name> in the JSON array <section>.
function(bench_metric json section name key out)
    string(JSON n LENGTH "${json}" ${section})
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
        string(JSON nm GET "${json}" ${section} ${i} name)
        if(nm STREQUAL name)
            string(JSON v GET "${json}" ${section} ${i} ${key})
            set(${out} ${v} PARENT_SCOPE)
            return()
        endif()
    endforeach()
    message(FATAL_ERROR "bench_gate: '${name}' not found in ${section}")
endfunction()

# Like bench_metric, but sets <out> to "" when the entry is absent
# (baselines predating a phase skip that phase's gate).
function(bench_metric_optional json section name key out)
    set(${out} "" PARENT_SCOPE)
    string(JSON n LENGTH "${json}" ${section})
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
        string(JSON nm GET "${json}" ${section} ${i} name)
        if(nm STREQUAL name)
            string(JSON v GET "${json}" ${section} ${i} ${key})
            set(${out} ${v} PARENT_SCOPE)
            return()
        endif()
    endforeach()
endfunction()

file(READ ${BASELINE} base_json)
bench_metric("${base_json}" benchmarks OooCpuRun ns_per_op base_ooo)
bench_metric("${base_json}" benchmarks SimpleCpuRun ns_per_op base_simple)
bench_metric("${base_json}" campaign_phases visa_campaign sim_mips base_mips)
bench_metric_optional("${base_json}" campaign_phases chip_campaign_c4
    sim_mips base_chip)
# Parallel chip-execution speedup (higher is better). Gated relative to
# the baseline rather than against an absolute bar: the achievable
# ratio is a property of the recording host (a single-CPU container
# tops out near 1.0x; a 4-way host near 4x), and the host-mismatch
# downgrade below already covers cross-machine comparisons.
bench_metric_optional("${base_json}" campaign_phases chip_parallel_speedup
    speedup base_spd)
to_milli(${base_ooo} base_ooo_m)
to_milli(${base_simple} base_simple_m)
to_milli(${base_mips} base_mips_m)
if(NOT base_chip STREQUAL "")
    to_milli(${base_chip} base_chip_m)
endif()
if(NOT base_spd STREQUAL "")
    to_milli(${base_spd} base_spd_m)
endif()

if(DEFINED INJECT_BASELINE)
    file(READ ${INJECT_BASELINE} inject_base_json)
    bench_metric("${inject_base_json}" benchmarks OooCpuRun ns_per_op
        base_inj_ooo)
    bench_metric("${inject_base_json}" benchmarks SimpleCpuRun ns_per_op
        base_inj_simple)
    to_milli(${base_inj_ooo} base_inj_ooo_m)
    to_milli(${base_inj_simple} base_inj_simple_m)
endif()

# "<cpu_model>/<cores>" of a report's host object, or "" if absent.
function(host_id json out)
    string(JSON host ERROR_VARIABLE err GET "${json}" host)
    if(err)
        set(${out} "" PARENT_SCOPE)
        return()
    endif()
    string(JSON model GET "${host}" cpu_model)
    string(JSON cores GET "${host}" cores)
    set(${out} "${model}/${cores}" PARENT_SCOPE)
endfunction()

host_id("${base_json}" base_host)

# Ambient load before the first attempt (the gate itself has not run
# yet, so this is pure foreign contention). Empty when unreadable.
set(ambient_load "")
if(EXISTS "/proc/loadavg")
    file(READ "/proc/loadavg" loadavg_text)
    string(REGEX MATCH "^[0-9]+\\.[0-9]+" ambient_load "${loadavg_text}")
endif()
include(ProcessorCount)
ProcessorCount(ncores)
if(ncores EQUAL 0)
    set(ncores 1)
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
foreach(attempt RANGE 1 5)
    execute_process(
        COMMAND ${BENCH_REPORT} -o ${WORK_DIR}/bench_gate.json
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "bench_gate: bench-report exited with ${rc}")
    endif()
    file(READ ${WORK_DIR}/bench_gate.json cur_json)
    bench_metric("${cur_json}" benchmarks OooCpuRun ns_per_op cur_ooo)
    bench_metric("${cur_json}" benchmarks SimpleCpuRun ns_per_op cur_simple)
    bench_metric("${cur_json}" campaign_phases visa_campaign sim_mips cur_mips)
    to_milli(${cur_ooo} cur_ooo_m)
    to_milli(${cur_simple} cur_simple_m)
    to_milli(${cur_mips} cur_mips_m)
    if(NOT base_chip STREQUAL "")
        bench_metric("${cur_json}" campaign_phases chip_campaign_c4
            sim_mips cur_chip)
        to_milli(${cur_chip} cur_chip_m)
    endif()
    if(NOT base_spd STREQUAL "")
        bench_metric("${cur_json}" campaign_phases chip_parallel_speedup
            speedup cur_spd)
        to_milli(${cur_spd} cur_spd_m)
    endif()

    host_id("${cur_json}" cur_host)
    set(host_mismatch FALSE)
    if(NOT base_host STREQUAL "" AND NOT cur_host STREQUAL base_host)
        set(host_mismatch TRUE)
    endif()

    # Fold this attempt into the per-metric best-so-far (noise only
    # inflates ns/op and deflates MIPS, so best = least-noisy sample).
    if(attempt EQUAL 1 OR cur_ooo_m LESS best_ooo_m)
        set(best_ooo_m ${cur_ooo_m})
        set(best_ooo ${cur_ooo})
    endif()
    if(attempt EQUAL 1 OR cur_simple_m LESS best_simple_m)
        set(best_simple_m ${cur_simple_m})
        set(best_simple ${cur_simple})
    endif()
    if(attempt EQUAL 1 OR cur_mips_m GREATER best_mips_m)
        set(best_mips_m ${cur_mips_m})
        set(best_mips ${cur_mips})
    endif()
    if(NOT base_chip STREQUAL "")
        if(attempt EQUAL 1 OR cur_chip_m GREATER best_chip_m)
            set(best_chip_m ${cur_chip_m})
            set(best_chip ${cur_chip})
        endif()
    endif()
    if(NOT base_spd STREQUAL "")
        if(attempt EQUAL 1 OR cur_spd_m GREATER best_spd_m)
            set(best_spd_m ${cur_spd_m})
            set(best_spd ${cur_spd})
        endif()
    endif()
    # The overhead gate tracks the best *paired* ratio: numerator and
    # denominator must come from the same attempt for host noise to
    # cancel, so the fold keeps the pair, not two independent minima.
    # ratio(cur) < ratio(best)  <=>  cur_num * best_den < best_num * cur_den.
    if(DEFINED INJECT_BASELINE)
        set(take FALSE)
        if(attempt EQUAL 1)
            set(take TRUE)
        else()
            math(EXPR lhs "${cur_ooo_m} * ${best_inj_simple_m}")
            math(EXPR rhs "${best_inj_ooo_m} * ${cur_simple_m}")
            if(lhs LESS rhs)
                set(take TRUE)
            endif()
        endif()
        if(take)
            set(best_inj_ooo_m ${cur_ooo_m})
            set(best_inj_simple_m ${cur_simple_m})
            set(best_inj_ooo ${cur_ooo})
            set(best_inj_simple ${cur_simple})
        endif()
    endif()

    set(failures "")
    # Lower-is-better: fail when best > 1.25 * base.
    math(EXPR lhs "${best_ooo_m} * 100")
    math(EXPR rhs "${base_ooo_m} * 125")
    if(lhs GREATER rhs)
        string(APPEND failures
            " OooCpuRun ${best_ooo} ns/op vs baseline ${base_ooo};")
    endif()
    math(EXPR lhs "${best_simple_m} * 100")
    math(EXPR rhs "${base_simple_m} * 125")
    if(lhs GREATER rhs)
        string(APPEND failures
            " SimpleCpuRun ${best_simple} ns/op vs baseline ${base_simple};")
    endif()
    # Higher-is-better: fail when best < 0.75 * base.
    math(EXPR lhs "${best_mips_m} * 100")
    math(EXPR rhs "${base_mips_m} * 75")
    if(lhs LESS rhs)
        string(APPEND failures
            " visa_campaign ${best_mips} sim-MIPS vs baseline ${base_mips};")
    endif()
    if(NOT base_chip STREQUAL "")
        math(EXPR lhs "${best_chip_m} * 100")
        math(EXPR rhs "${base_chip_m} * 75")
        if(lhs LESS rhs)
            string(APPEND failures
                " chip_campaign_c4 ${best_chip} sim-MIPS vs baseline"
                " ${base_chip};")
        endif()
    endif()
    if(NOT base_spd STREQUAL "")
        math(EXPR lhs "${best_spd_m} * 100")
        math(EXPR rhs "${base_spd_m} * 75")
        if(lhs LESS rhs)
            string(APPEND failures
                " chip_parallel_speedup ${best_spd}x vs baseline"
                " ${base_spd}x;")
        endif()
    endif()
    # Injection-off overhead: OooCpuRun/SimpleCpuRun within 2% of the
    # same ratio in the pre-injection baseline (the FaultPort hooks
    # compile in unconditionally; with no port installed they must cost
    # nothing, and SimpleCpu never sees a port).
    if(DEFINED INJECT_BASELINE)
        math(EXPR lhs "${best_inj_ooo_m} * ${base_inj_simple_m} * 100")
        math(EXPR rhs "${base_inj_ooo_m} * ${best_inj_simple_m} * 102")
        if(lhs GREATER rhs)
            string(APPEND failures
                " OooCpuRun/SimpleCpuRun ${best_inj_ooo}/${best_inj_simple}"
                " ns/op vs pre-injection baseline"
                " ${base_inj_ooo}/${base_inj_simple}"
                " (>2% injection-off overhead);")
        endif()
    endif()

    if(failures STREQUAL "")
        message(STATUS
            "bench_gate pass (attempt ${attempt}): OooCpuRun ${best_ooo} "
            "(base ${base_ooo}), SimpleCpuRun ${best_simple} "
            "(base ${base_simple}), visa_campaign ${best_mips} sim-MIPS "
            "(base ${base_mips})")
        return()
    endif()
    message(STATUS
        "bench_gate attempt ${attempt}/5, best still over margin:${failures}")
endforeach()

if(host_mismatch)
    message(WARNING
        "bench_gate: regression over margin, but this host "
        "('${cur_host}') differs from the baseline's ('${base_host}') "
        "— numbers are not comparable, downgrading to a warning:"
        "${failures}")
    return()
endif()

if(NOT ambient_load STREQUAL "")
    to_milli(${ambient_load} load_m)
    math(EXPR load_limit "${ncores} * 1000")
    if(load_m GREATER load_limit)
        message(WARNING
            "bench_gate: regression over margin, but ambient load was "
            "already ${ambient_load} on ${ncores} core(s) before the "
            "first attempt — the machine is contended by foreign work "
            "and the numbers bound nothing, downgrading to a warning:"
            "${failures}")
        return()
    endif()
endif()

message(FATAL_ERROR
    "bench_gate: regression persisted across 5 attempts "
    "(best of each metric):${failures}")
