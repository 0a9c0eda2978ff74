/**
 * @file
 * visa-sim: the command-line driver. Assembles a VPISA source file (or
 * builds a named C-lab workload) and runs it on either pipeline, under
 * the VISA run-time system if requested — single-task periodic
 * execution, or a preemptive multi-task set under EDF/RM scheduling —
 * with structured event tracing and JSON statistics export.
 *
 *   visa-sim program.s                      run on simple-fixed
 *   visa-sim --cpu complex program.s        run on the OOO pipeline
 *   visa-sim --cpu simple-mode program.s    OOO pipeline, simple mode
 *   visa-sim --freq 250 program.s           clock in MHz (default 1000)
 *   visa-sim --wcet program.s               static analysis across DVS
 *   visa-sim --disasm program.s             annotated disassembly
 *   visa-sim --stats program.s              dump simulation statistics
 *   visa-sim --workload fft ...             built-in benchmark instead
 *                                           of a source file
 *   visa-sim --runtime visa --workload fft --tasks 20
 *                                           periodic execution under the
 *                                           VISA run-time system
 *   visa-sim --taskset trio --jobs 40 --util 0.6
 *                                           preemptive multi-task EDF
 *                                           schedule of a benchmark set
 *   visa-sim --cores 4 --taskset clab6 --policy pedf
 *                                           partitioned EDF over a
 *                                           4-core chip (gedf = global)
 *   visa-sim --trace out.json ...           Chrome/Perfetto event trace
 *   visa-sim --trace-jsonl out.jsonl ...    flat JSONL event trace
 *   visa-sim --stats-json stats.json ...    hierarchical JSON stats
 *   visa-sim --debug help                   list debug/trace flags
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/runtime.hh"
#include "core/scheduler.hh"
#include "isa/assembler.hh"
#include "isa/disassembler.hh"
#include "sim/builder.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/prof/prof.hh"
#include "sim/trace.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"
#include "workloads/tasksets.hh"

using namespace visa;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct Options
{
    CliParser cli{"visa-sim", "program.s",
                  "VPISA source file (or use --workload/--taskset)"};
    std::string &cpu_kind =
        cli.flag("--cpu", "simple|complex|simple-mode",
                 "pipeline for the free run", "simple");
    std::string &freq =
        cli.flag("--freq", "MHZ", "core clock for the free run", "1000");
    bool &do_wcet =
        cli.boolFlag("--wcet", "static WCET analysis across DVS points");
    bool &do_disasm =
        cli.boolFlag("--disasm", "annotated disassembly");
    bool &do_stats =
        cli.boolFlag("--stats", "dump simulation statistics");
    bool &show_encodings =
        cli.boolFlag("--encodings", "instruction encodings in --disasm");
    std::string &workload =
        cli.flag("--workload", "NAME", "built-in benchmark to run");
    std::string &runtime =
        cli.flag("--runtime", "visa|simple",
                 "periodic execution under a DVS runtime");
    std::string &tasks =
        cli.flag("--tasks", "N", "task instances under --runtime", "20");
    std::string &induce_every =
        cli.flag("--induce-every", "N",
                 "flush caches/predictors every Nth task", "0");
    std::string &deadline =
        cli.flag("--deadline", "tight|loose|min|SECONDS",
                 "per-task deadline under --runtime", "tight");
    std::string &taskset =
        cli.flag("--taskset", "SET",
                 "multi-task schedule: a named set (duo trio mixed "
                 "clab6) or wl[:scale],wl[:scale],...");
    std::string &policy =
        cli.flag("--policy", "edf|rm|pedf|gedf",
                 "dispatching policy (pedf/gedf: partitioned/global "
                 "EDF over --cores)",
                 "edf");
    std::string &governor =
        cli.flag("--governor", "pertask|max", "DVS governor policy",
                 "pertask");
    std::string &jobs =
        cli.flag("--jobs", "N", "jobs per task under --taskset", "20");
    std::string &util =
        cli.flag("--util", "U",
                 "target core utilization for the derived periods",
                 "0.6");
    std::string &force_miss =
        cli.flag("--force-miss", "TASK[:EVERY]",
                 "force a watchdog expiry on the named task's jobs "
                 "(every Nth, default every job)");
    std::string &switch_cycles =
        cli.flag("--switch-cycles", "N",
                 "modeled context-switch cost, cycles", "500");
    std::string &quantum =
        cli.flag("--quantum", "N", "scheduler slice budget, cycles",
                 "20000");
    std::string &profile_json =
        cli.flag("--profile-json", "FILE",
                 "block-granular execution profile JSON ('-' = stdout)");
    std::string &prof_counters =
        cli.flag("--prof-counters", "FILE",
                 "Perfetto counter tracks of checkpoint slack/AET");
    std::string &cores = addCoresFlag(cli);
    std::string &affinity = addAffinityFlag(cli);
    TraceFlags trace{cli};
    std::string &stats_json = addStatsJsonFlag(cli);
    std::string &threads = addThreadsFlag(cli);
    bool &no_block_cache = addNoBlockCacheFlag(cli);
    std::string &debug = addDebugFlag(cli);
};

/** True when either profiling output was requested. */
bool
wantProfile(const Options &o)
{
    return !o.profile_json.empty() || !o.prof_counters.empty();
}

/** Export the collected profile to the files the flags name. */
void
writeProfileOutputs(const Options &o, const prof::BlockProfiler &prof)
{
    if (!o.profile_json.empty())
        withOutputStream(o.profile_json, [&](std::ostream &os) {
            prof.writeJson(os);
        });
    if (!o.prof_counters.empty())
        withOutputStream(o.prof_counters, [&](std::ostream &os) {
            prof.writeChromeCounters(os);
        });
}

/** Deadline/budget selector shared by --runtime and --taskset. */
double
resolveDeadline(const ExperimentSetup &setup,
                const std::string &spec)
{
    if (spec == "tight")
        return setup.tightDeadline;
    if (spec == "loose")
        return setup.looseDeadline;
    if (spec == "min")
        // Near-zero residual slack (the Fig. 4 regime): induced
        // cache/predictor flushes actually miss checkpoints here.
        return 1.02 * setup.minDeadline;
    return parseDoubleFlag("--deadline", spec);
}

/** Periodic execution under the VISA run-time system (fig3/fig4 style). */
int
runUnderRuntime(const Options &o)
{
    if (o.workload.empty())
        fatal("--runtime requires --workload (the run-time system needs "
              "the WCET analysis of a known benchmark)");
    if (o.runtime != "visa" && o.runtime != "simple")
        fatal("--runtime must be 'visa' or 'simple', not '%s'",
              o.runtime.c_str());

    const int num_tasks = parseIntFlag("--tasks", o.tasks, 1);
    const int induce_every =
        parseIntFlag("--induce-every", o.induce_every, 0);
    const ExperimentSetup &setup = cachedSetup(o.workload);
    const double deadline = resolveDeadline(setup, o.deadline);

    auto sim = SimBuilder()
                   .program(setup.wl.program)
                   .runtime(o.runtime == "visa" ? RuntimeKind::Visa
                                                : RuntimeKind::SimpleFixed,
                            setup.wcet, setup.dvs,
                            setup.runtimeConfig(deadline))
                   .build();
    DvsRuntime &rt = sim->runtime();

    std::unique_ptr<Tracer> tracer = o.trace.makeTracer();
    std::unique_ptr<ScopedTracer> scope;
    if (tracer)
        scope = std::make_unique<ScopedTracer>(*tracer);

    std::unique_ptr<prof::BlockProfiler> profiler;
    std::unique_ptr<prof::ScopedProfiler> pscope;
    if (wantProfile(o)) {
        profiler = std::make_unique<prof::BlockProfiler>(sim->program());
        pscope = std::make_unique<prof::ScopedProfiler>(*profiler);
    }

    int misses = 0, deadline_misses = 0, bad_checksums = 0;
    for (int t = 0; t < num_tasks; ++t) {
        bool induce = induce_every > 0 && t > 0 && t % induce_every == 0;
        TaskStats ts = rt.runTask(induce);
        if (ts.missedCheckpoint)
            ++misses;
        if (!ts.deadlineMet)
            ++deadline_misses;
        if (ts.checksumReported &&
            ts.checksum != setup.wl.expectedChecksum)
            ++bad_checksums;
    }

    pscope.reset();    // uninstall before reporting
    if (profiler) {
        // Bound-side inputs for the slack report: per-sub-task WCETs
        // at every DVS operating point, and the analyzer's worst-case
        // path broken into charges at the top setting.
        for (const DvsSetting &s : setup.dvs.settings()) {
            std::vector<std::uint64_t> bounds;
            for (int k = 0; k < setup.wcet.numSubtasks(); ++k)
                bounds.push_back(setup.wcet.subtaskCycles(k, s.freq));
            profiler->setWcetBound(s.freq, std::move(bounds));
        }
        const WcetAttribution attr =
            setup.analyzer.attribute(setup.dvs.maxFreq(), &setup.dmiss);
        std::vector<prof::SubtaskBound> sbounds;
        for (std::size_t k = 0; k < attr.subtaskCharges.size(); ++k) {
            prof::SubtaskBound b;
            b.subtask = static_cast<int>(k) + 1;
            for (const WcetCharge &c : attr.subtaskCharges[k]) {
                prof::BoundCharge pc;
                pc.startPc = c.startPc;
                pc.endPc = c.endPc;
                pc.kind = wcetChargeKindName(c.kind);
                pc.count = c.count;
                pc.cycles = c.cycles;
                b.cycles += c.cycles;
                b.charges.push_back(std::move(pc));
            }
            sbounds.push_back(std::move(b));
        }
        profiler->setBoundAttribution(std::move(sbounds));
    }

    StatSet stats;
    sim->cpu().buildStats(stats);
    rt.buildStats(stats);
    if (profiler)
        profiler->buildStats(stats);

    std::printf("ran %d tasks of '%s' under the %s runtime "
                "(deadline %.3g us): %d checkpoint misses, "
                "%d deadline misses, %d bad checksums\n",
                num_tasks, o.workload.c_str(), o.runtime.c_str(),
                deadline * 1e6, misses, deadline_misses, bad_checksums);

    if (o.do_stats) {
        std::ostringstream text;
        stats.dump(text);
        std::fputs(text.str().c_str(), stdout);
    }
    if (!o.stats_json.empty())
        withOutputStream(o.stats_json, [&](std::ostream &os) {
            stats.dumpJson(os);
        });
    if (tracer) {
        scope.reset();    // uninstall before writing
        o.trace.writeOutputs(*tracer);
    }
    if (profiler)
        writeProfileOutputs(o, *profiler);
    return deadline_misses == 0 && bad_checksums == 0 ? 0 : 1;
}

/** Preemptive multi-task schedule of a benchmark set. */
int
runTaskSet(const Options &o)
{
    SchedulerConfig cfg;
    if (!parseSchedPolicyEx(o.policy, cfg.policy, cfg.placement))
        fatal("--policy must be 'edf', 'rm', 'pedf' or 'gedf', not "
              "'%s'",
              o.policy.c_str());
    cfg.cores = parseCoresFlag(o.cores);
    cfg.affinity = parseAffinityFlag(o.affinity);
    validateAffinity(cfg.affinity, cfg.cores);
    if (!parseGovernorPolicy(o.governor, cfg.governor))
        fatal("--governor must be 'pertask' or 'max', not '%s'",
              o.governor.c_str());
    cfg.contextSwitchCycles =
        parseIntFlag<Cycles>("--switch-cycles", o.switch_cycles);
    cfg.quantumCycles = parseIntFlag<Cycles>("--quantum", o.quantum, 1);
    const int jobs = parseIntFlag("--jobs", o.jobs, 1);
    const double util = parseDoubleFlag("--util", o.util);

    std::string force_task;
    int force_every = 1;
    if (!o.force_miss.empty()) {
        force_task = o.force_miss;
        if (std::size_t colon = force_task.find(':');
            colon != std::string::npos) {
            force_every =
                parseIntFlag("--force-miss", force_task.substr(colon + 1), 1);
            force_task = force_task.substr(0, colon);
        }
    }

    const std::vector<TaskSetMemberSpec> members =
        parseTaskSet(o.taskset);
    std::vector<SchedTaskDef> defs =
        makeTaskSetDefs(members, util);
    bool force_matched = force_task.empty();
    for (SchedTaskDef &d : defs) {
        if (d.name == force_task) {
            d.forceMissEvery = force_every;
            force_matched = true;
        }
    }
    if (!force_matched)
        fatal("--force-miss: no task named '%s' in the set",
              force_task.c_str());

    MultiTaskScheduler sched(cfg);
    for (const SchedTaskDef &d : defs)
        sched.addTask(d);
    if (std::string err = sched.admissionError(); !err.empty())
        fatal("task set rejected: %s", err.c_str());

    std::unique_ptr<Tracer> tracer = o.trace.makeTracer();
    std::unique_ptr<ScopedTracer> scope;
    if (tracer)
        scope = std::make_unique<ScopedTracer>(*tracer);

    const ScheduleOutcome out = sched.run(jobs);

    if (cfg.cores > 1)
        std::printf("scheduled %d tasks on %d cores (%s %s, governor "
                    "%s) for %d jobs each: %.3f ms wall, %d "
                    "preemptions, %d deadline misses, %d checkpoint "
                    "misses\n",
                    sched.numTasks(), cfg.cores,
                    placementName(cfg.placement),
                    schedPolicyName(cfg.policy),
                    governorPolicyName(cfg.governor), jobs,
                    out.wallSeconds * 1e3, out.preemptions,
                    out.deadlineMisses, out.checkpointMisses);
    else
        std::printf("scheduled %d tasks (%s, governor %s) for %d jobs "
                    "each: %.3f ms wall, %d preemptions, %d deadline "
                    "misses, %d checkpoint misses\n",
                    sched.numTasks(), schedPolicyName(cfg.policy),
                    governorPolicyName(cfg.governor), jobs,
                    out.wallSeconds * 1e3, out.preemptions,
                    out.deadlineMisses, out.checkpointMisses);
    int bad_checksums = 0;
    for (int i = 0; i < sched.numTasks(); ++i) {
        const SchedTaskStats &st = sched.taskStats(i);
        bad_checksums += st.badChecksums;
        std::printf("  %-10s B=%.3g us T=%.3g us: %d jobs, %d deadline "
                    "misses, %d recoveries, %d preemptions, min slack "
                    "%.3g us\n",
                    sched.taskDef(i).name.c_str(),
                    sched.taskDef(i).runtime.deadlineSeconds * 1e6,
                    sched.taskDef(i).periodSeconds * 1e6, st.jobs,
                    st.deadlineMisses, st.checkpointMisses,
                    st.preemptions, st.minSlackSeconds * 1e6);
    }
    if (cfg.cores > 1 && cfg.placement == PlacementPolicy::Partitioned) {
        std::printf("  placement:");
        for (int i = 0; i < sched.numTasks(); ++i)
            std::printf(" %s->c%d", sched.taskDef(i).name.c_str(),
                        sched.assignment()[static_cast<std::size_t>(i)]);
        std::printf("\n");
    }

    StatSet stats;
    sched.buildStats(stats);
    if (o.do_stats) {
        std::ostringstream text;
        stats.dump(text);
        std::fputs(text.str().c_str(), stdout);
    }
    if (!o.stats_json.empty())
        withOutputStream(o.stats_json, [&](std::ostream &os) {
            stats.dumpJson(os);
        });
    if (tracer) {
        scope.reset();
        o.trace.writeOutputs(*tracer);
    }
    return out.deadlineMisses == 0 && bad_checksums == 0 ? 0 : 1;
}

/** Single free run of one program on one pipeline (the classic mode). */
int
runOnce(const Options &o, Program prog)
{
    CpuKind kind;
    if (o.cpu_kind == "simple")
        kind = CpuKind::Simple;
    else if (o.cpu_kind == "complex")
        kind = CpuKind::Complex;
    else if (o.cpu_kind == "simple-mode")
        kind = CpuKind::ComplexSimpleMode;
    else
        fatal("unknown --cpu '%s'", o.cpu_kind.c_str());
    const MHz freq = parseIntFlag<MHz>("--freq", o.freq, 1);
    const int cores = parseCoresFlag(o.cores);

    if (cores > 1) {
        // Free-run the whole chip: every core executes the program on
        // its complex pipeline, contending on the shared bus + L2.
        if (kind != CpuKind::Complex)
            fatal("--cores %d: the multi-core free run uses the "
                  "complex pipeline (--cpu complex)",
                  cores);
        auto chip = SimBuilder()
                        .program(std::move(prog))
                        .cpu(kind)
                        .frequency(freq)
                        .cores(cores)
                        .buildChip();
        const chip::Chip::RunAllResult res =
            chip->runAll(20'000'000'000ULL);
        if (!res.allHalted)
            fatal("a core did not halt within the cycle budget");
        std::printf("\nran on %d cores @ %u MHz: %llu instructions "
                    "total\n",
                    cores, freq,
                    static_cast<unsigned long long>(res.retired));
        for (int c = 0; c < chip->numCores(); ++c) {
            OooCpu &cpu = chip->core(c).ooo();
            std::printf("  core %d: %llu cycles, %llu instructions "
                        "(IPC %.2f)\n",
                        c,
                        static_cast<unsigned long long>(cpu.cycles()),
                        static_cast<unsigned long long>(cpu.retired()),
                        static_cast<double>(cpu.retired()) /
                            static_cast<double>(cpu.cycles()));
        }
        StatSet stats;
        chip->buildStats(stats);
        if (o.do_stats) {
            std::ostringstream os;
            stats.dump(os);
            std::fputs(os.str().c_str(), stdout);
        }
        if (!o.stats_json.empty())
            withOutputStream(o.stats_json, [&](std::ostream &os) {
                stats.dumpJson(os);
            });
        return 0;
    }

    auto sim = SimBuilder()
                   .program(std::move(prog))
                   .cpu(kind)
                   .frequency(freq)
                   .build();
    Cpu &cpu = sim->cpu();

    std::unique_ptr<Tracer> tracer = o.trace.makeTracer();
    std::unique_ptr<prof::BlockProfiler> profiler;
    if (wantProfile(o))
        profiler = std::make_unique<prof::BlockProfiler>(sim->program());
    RunResult res;
    {
        std::unique_ptr<ScopedTracer> scope;
        if (tracer)
            scope = std::make_unique<ScopedTracer>(*tracer);
        std::unique_ptr<prof::ScopedProfiler> pscope;
        if (profiler)
            pscope = std::make_unique<prof::ScopedProfiler>(*profiler);
        res = cpu.run(20'000'000'000ULL);
    }
    if (res.reason != StopReason::Halted)
        fatal("program did not halt (budget/watchdog)");

    std::printf("\nran on %s @ %u MHz: %llu cycles, %llu "
                "instructions (IPC %.2f, %.2f us)\n",
                o.cpu_kind.c_str(), freq,
                static_cast<unsigned long long>(cpu.cycles()),
                static_cast<unsigned long long>(cpu.retired()),
                static_cast<double>(cpu.retired()) /
                    static_cast<double>(cpu.cycles()),
                static_cast<double>(cpu.cycles()) / freq);
    if (sim->platform().checksumReported())
        std::printf("checksum: 0x%x\n", sim->platform().lastChecksum());
    if (!sim->platform().consoleOutput().empty())
        std::printf("console: %s\n",
                    sim->platform().consoleOutput().c_str());
    if (o.do_stats) {
        std::printf("\n");
        std::ostringstream os;
        cpu.dumpStats(os);
        std::fputs(os.str().c_str(), stdout);
    }
    if (!o.stats_json.empty())
        withOutputStream(o.stats_json, [&](std::ostream &os) {
            cpu.dumpStatsJson(os);
        });
    if (tracer)
        o.trace.writeOutputs(*tracer);
    if (profiler)
        writeProfileOutputs(o, *profiler);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        Options o;
        o.cli.parse(argc, argv);
        applyDebugFlag(o.debug);
        applyThreadsFlag(o.threads);
        // Must precede rig construction: each ExecCore latches the
        // default when built.
        if (o.no_block_cache)
            ExecCore::setBlockCacheDefault(false);
        const std::string &path = o.cli.positional();

        if (!o.taskset.empty())
            return runTaskSet(o);
        if (path.empty() && o.workload.empty()) {
            o.cli.printUsage(stderr);
            return 2;
        }
        if (!path.empty() && !o.workload.empty())
            fatal("give either a source file or --workload, not both");

        if (!o.runtime.empty())
            return runUnderRuntime(o);

        Program prog;
        if (!o.workload.empty()) {
            Workload wl = makeWorkload(o.workload);
            prog = std::move(wl.program);
            std::printf("workload '%s': %zu instructions "
                        "(%zu sub-task markers)\n",
                        o.workload.c_str(), prog.size(),
                        prog.subtaskStarts.size());
        } else {
            prog = assemble(readFile(path));
            std::printf("assembled %zu instructions (%zu sub-task "
                        "markers, %zu loop bounds)\n",
                        prog.size(), prog.subtaskStarts.size(),
                        prog.loopBounds.size());
        }

        if (o.do_disasm) {
            DisasmOptions opts;
            opts.showEncodings = o.show_encodings;
            std::fputs(disassembleProgram(prog, opts).c_str(), stdout);
        }

        if (o.do_wcet) {
            WcetAnalyzer analyzer(prog);
            DMissProfile dmiss = profileDataMisses(prog);
            std::printf("\nstatic WCET (trace-padded D-cache):\n");
            for (MHz f : {100u, 250u, 500u, 750u, 1000u}) {
                WcetReport rep = analyzer.analyze(f, &dmiss);
                std::printf("  %4u MHz: %10llu cycles  (%.2f us)\n", f,
                            static_cast<unsigned long long>(
                                rep.taskCycles),
                            rep.taskMicros());
            }
        }

        return runOnce(o, std::move(prog));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
