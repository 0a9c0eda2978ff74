/**
 * @file
 * Machine-readable performance report: re-runs the headline
 * microbenchmarks with plain std::chrono timing and emits JSON
 * (benchmark -> ns/op, items/s), so each PR can record the simulator's
 * throughput trajectory (BENCH_PR1.json and successors) without
 * parsing google-benchmark's console output.
 *
 * Usage: bench-report [-o FILE] [--reps N]
 *
 * Each benchmark runs N times (default 5) and the report keeps the
 * fastest repetition: on a shared machine the minimum is the best
 * estimator of the code's true cost.
 *
 * The report also self-profiles the experiment-campaign phases (WCET
 * setup, the simple and VISA campaigns, a traced VISA campaign, and
 * the differential-verification harness): host wall-clock per phase
 * and simulated MIPS, under "campaign_phases". The traced arm quantifies the cost of turning the
 * tracer on; the untraced arms track the simulator's raw speed.
 *
 * chip_campaign_cN phases sweep the multi-core chip model: the clab6
 * task set under partitioned EDF on 1, 2, ... --cores cores (powers of
 * two), through the shared bus + L2. The cN curve tracks how sim-MIPS
 * scales with simulated chip width.
 */

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "cpu/rig.hh"
#include "sim/builder.hh"
#include "sim/cli.hh"
#include "verify/lockstep.hh"
#include "verify/progen.hh"

using namespace visa;

namespace
{

struct Result
{
    std::string name;
    double nsPerOp = 0.0;
    double itemsPerSecond = 0.0;
};

/**
 * Identify the machine and toolchain behind the numbers, so a report
 * compared against a baseline recorded elsewhere can be flagged
 * (tests/bench_gate.cmake downgrades its throughput gates to warnings
 * on a host mismatch instead of failing on apples-vs-oranges data).
 */
struct HostInfo
{
    std::string cpuModel;    ///< /proc/cpuinfo "model name" ("" off-Linux)
    unsigned cores = 0;
    std::string compiler;    ///< __VERSION__
    std::string buildType;   ///< "release" / "debug" (NDEBUG)
};

HostInfo
hostInfo()
{
    HostInfo h;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const auto colon = line.find(':');
        if (line.compare(0, 10, "model name") == 0 &&
            colon != std::string::npos) {
            h.cpuModel = line.substr(colon + 1);
            while (!h.cpuModel.empty() && h.cpuModel.front() == ' ')
                h.cpuModel.erase(h.cpuModel.begin());
            break;
        }
    }
    h.cores = std::thread::hardware_concurrency();
#if defined(__VERSION__)
    h.compiler = __VERSION__;
#endif
#ifdef NDEBUG
    h.buildType = "release";
#else
    h.buildType = "debug";
#endif
    return h;
}

/** Minimal JSON string escape (quotes and backslashes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/**
 * Run @p body @p reps times; it returns the number of items it
 * processed. Records the fastest repetition under @p name.
 */
Result
measure(const std::string &name, int reps,
        const std::function<std::uint64_t()> &body)
{
    using clock = std::chrono::steady_clock;
    double best_ns = 0.0;
    std::uint64_t best_items = 1;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = clock::now();
        const std::uint64_t items = body();
        const auto t1 = clock::now();
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        if (r == 0 || ns < best_ns) {
            best_ns = ns;
            best_items = items ? items : 1;
        }
    }
    Result res;
    res.name = name;
    res.nsPerOp = best_ns / static_cast<double>(best_items);
    res.itemsPerSecond = 1e9 * static_cast<double>(best_items) / best_ns;
    fprintf(stderr, "%-24s %12.2f ns/op %14.0f items/s\n", name.c_str(),
            res.nsPerOp, res.itemsPerSecond);
    return res;
}

struct Phase
{
    std::string name;
    double wallSeconds = 0.0;
    std::uint64_t instructions = 0;
    double simMips = 0.0;    ///< simulated Minsts / host second (0 = n/a)
    double speedup = 0.0;    ///< serial / threaded wall ratio (0 = n/a)
};

/**
 * Time one campaign phase; @p body returns instructions simulated.
 * Like measure(), the fastest of @p reps runs is kept: the phases are
 * tens of milliseconds each, so a single sample is dominated by host
 * scheduler noise. The bodies are deterministic, so every rep simulates
 * the same instruction count.
 */
Phase
profilePhase(const std::string &name, int reps,
             const std::function<std::uint64_t()> &body)
{
    using clock = std::chrono::steady_clock;
    double best = 0.0;
    std::uint64_t insts = 0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = clock::now();
        insts = body();
        const auto t1 = clock::now();
        const double wall =
            std::chrono::duration_cast<std::chrono::duration<double>>(
                t1 - t0)
                .count();
        if (r == 0 || wall < best)
            best = wall;
    }
    Phase p;
    p.name = name;
    p.wallSeconds = best;
    p.instructions = insts;
    if (insts && p.wallSeconds > 0.0) {
        p.simMips = static_cast<double>(insts) / 1e6 / p.wallSeconds;
        fprintf(stderr, "%-24s %10.3f s %14llu insts %10.2f MIPS\n",
                name.c_str(), p.wallSeconds,
                static_cast<unsigned long long>(p.instructions),
                p.simMips);
    } else {
        // Phases that simulate nothing (pure analysis, e.g. WCET
        // setup) have no meaningful MIPS figure; print wall time only.
        fprintf(stderr, "%-24s %10.3f s\n", name.c_str(), p.wallSeconds);
    }
    return p;
}

/** One runtime campaign: @p tasks instances, summed retired count. */
template <typename CpuT, typename RuntimeT>
std::uint64_t
runCampaign(const ExperimentSetup &setup, int tasks)
{
    const RuntimeConfig cfg = setup.runtimeConfig(setup.tightDeadline);
    Rig rig(setup.wl.program);
    RuntimeT rt(rig.build<CpuT>(), setup.wl.program, rig.mem(), setup.wcet,
                setup.dvs, cfg);
    std::uint64_t insts = 0;
    for (int t = 0; t < tasks; ++t)
        insts += rt.runTask().retired;
    return insts;
}

std::vector<Phase>
profileCampaignPhases(int reps, int maxCores)
{
    constexpr int tasks = 30;
    std::vector<Phase> phases;

    // cachedSetup's first call pays the WCET analysis, the calibration
    // runs, and the deadline bisection; later phases reuse the cache,
    // isolating pure simulation speed. One rep only: repeating it
    // would time cache hits, not the one-time analysis cost.
    phases.push_back(profilePhase("setup_wcet_analysis", 1, [] {
        (void)cachedSetup("cnt");
        return std::uint64_t{0};
    }));

    const ExperimentSetup &setup = cachedSetup("cnt");
    phases.push_back(profilePhase("simple_campaign", reps, [&] {
        return runCampaign<SimpleCpu, SimpleFixedRuntime>(setup, tasks);
    }));
    phases.push_back(profilePhase("visa_campaign", reps, [&] {
        return runCampaign<OooCpu, VisaComplexRuntime>(setup, tasks);
    }));
    phases.push_back(profilePhase("visa_campaign_traced", reps, [&] {
        Tracer tracer(1 << 20);
        ScopedTracer scope(tracer);
        return runCampaign<OooCpu, VisaComplexRuntime>(setup, tasks);
    }));
    // Differential-verification throughput: generate + lockstep-check
    // random programs serially (src/verify); tracks how many programs
    // a fuzzing campaign gets through per host second.
    phases.push_back(profilePhase("verify_throughput", reps, [] {
        std::uint64_t insts = 0;
        const verify::GenParams gen;
        for (std::uint64_t seed = 1; seed <= 200; ++seed) {
            const verify::GeneratedProgram g = verify::generate(seed, gen);
            insts += verify::runLockstep(g.program).instructions;
        }
        return insts;
    }));
    // Preemptive multi-task throughput: the trio task set under EDF at
    // 85% utilization (core/scheduler.hh). Task-set analysis happens
    // outside the timed body so the phase isolates scheduler +
    // simulation speed, not WCET setup.
    const std::vector<SchedTaskDef> trio =
        makeTaskSetDefs(parseTaskSet("trio"), 0.85);
    phases.push_back(profilePhase("taskset_throughput", reps, [&] {
        MultiTaskScheduler sched;
        for (const SchedTaskDef &d : trio)
            sched.addTask(d);
        sched.run(10);
        std::uint64_t insts = 0;
        for (int t = 0; t < sched.numTasks(); ++t)
            insts += sched.taskStats(t).retired;
        return insts;
    }));
    // Multi-core chip throughput: the six-task clab6 set under
    // partitioned EDF on 1, 2, ... maxCores cores (powers of two),
    // every core in front of the shared bus + L2. Same job count at
    // every width, so the cN curve is the cost of simulating chip
    // width, not of extra work.
    const std::vector<SchedTaskDef> clab6 =
        makeTaskSetDefs(parseTaskSet("clab6"), 0.85);
    int wide = 1;
    for (int m = 1; m <= maxCores; m *= 2) {
        wide = m;
        phases.push_back(profilePhase(
            "chip_campaign_c" + std::to_string(m), reps, [&, m] {
                SchedulerConfig cfg;
                cfg.cores = m;
                cfg.placement = PlacementPolicy::Partitioned;
                MultiTaskScheduler sched(cfg);
                for (const SchedTaskDef &d : clab6)
                    sched.addTask(d);
                sched.run(4);
                std::uint64_t insts = 0;
                for (int t = 0; t < sched.numTasks(); ++t)
                    insts += sched.taskStats(t).retired;
                return insts;
            }));
    }
    // Parallel chip execution: the widest chip campaign pinned to one
    // worker thread, then to one thread per core. The engine is
    // bit-identical in both configurations (the epoch barriers order
    // all cross-core effects), so the wall-clock ratio is pure host
    // parallelism — the speedup figure bench_gate tracks.
    if (wide > 1) {
        const auto campaign = [&] {
            SchedulerConfig cfg;
            cfg.cores = wide;
            cfg.placement = PlacementPolicy::Partitioned;
            MultiTaskScheduler sched(cfg);
            for (const SchedTaskDef &d : clab6)
                sched.addTask(d);
            sched.run(4);
            std::uint64_t insts = 0;
            for (int t = 0; t < sched.numTasks(); ++t)
                insts += sched.taskStats(t).retired;
            return insts;
        };
        const char *prevEnv = std::getenv("VISA_THREADS");
        const std::string prev = prevEnv ? prevEnv : "";
        setenv("VISA_THREADS", "1", 1);
        const Phase serial = profilePhase(
            "chip_campaign_c" + std::to_string(wide) + "_t1", reps,
            campaign);
        setenv("VISA_THREADS", std::to_string(wide).c_str(), 1);
        const Phase threaded = profilePhase(
            "chip_campaign_c" + std::to_string(wide) + "_t" +
                std::to_string(wide),
            reps, campaign);
        if (prevEnv)
            setenv("VISA_THREADS", prev.c_str(), 1);
        else
            unsetenv("VISA_THREADS");
        Phase sp;
        sp.name = "chip_parallel_speedup";
        sp.wallSeconds = threaded.wallSeconds;
        if (threaded.wallSeconds > 0.0)
            sp.speedup = serial.wallSeconds / threaded.wallSeconds;
        fprintf(stderr, "%-24s %10.2fx (%0.3f s -> %0.3f s)\n",
                sp.name.c_str(), sp.speedup, serial.wallSeconds,
                threaded.wallSeconds);
        phases.push_back(serial);
        phases.push_back(threaded);
        phases.push_back(sp);
    }
    return phases;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliParser cli("bench-report");
    std::string &out_flag =
        cli.flag("-o", "FILE", "write the JSON report here (default "
                               "stdout)");
    std::string &reps_flag =
        cli.flag("--reps", "N", "repetitions per benchmark (fastest "
                                "kept)", "5");
    std::string &threads_flag = addThreadsFlag(cli);
    std::string &cores_flag = addCoresFlag(cli);
    int max_cores = 4;    // widest chip in the chip_campaign sweep
    int reps = 0;
    try {
        cli.parse(argc, argv);
        applyThreadsFlag(threads_flag);
        if (!cores_flag.empty())
            max_cores = parseCoresFlag(cores_flag);
        reps = parseIntFlag("--reps", reps_flag, 1);
    } catch (const FatalError &e) {
        fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    const char *out_path = out_flag.empty() ? nullptr : out_flag.c_str();

    const Workload wl = makeWorkload("mm");

    std::vector<Result> results;

    results.push_back(measure("MemoryRead", reps, [] {
        MainMemory mem;
        for (Addr a = 0; a < 64 * 1024; a += 4)
            mem.writeWord(a, a);
        std::uint64_t sum = 0;
        const int passes = 2000;
        for (int p = 0; p < passes; ++p)
            for (Addr a = 0; a < 64 * 1024; a += 4)
                sum += mem.read(a, 4);
        // The checksum keeps the reads observable.
        if (sum == 1)
            fprintf(stderr, "unreachable\n");
        return static_cast<std::uint64_t>(passes) * (64 * 1024 / 4);
    }));

    results.push_back(measure("MemoryWrite", reps, [] {
        MainMemory mem;
        const int passes = 2000;
        for (int p = 0; p < passes; ++p)
            for (Addr a = 0; a < 64 * 1024; a += 4)
                mem.write(a, a, 4);
        return static_cast<std::uint64_t>(passes) * (64 * 1024 / 4);
    }));

    results.push_back(measure("MemoryBulkWrite", reps, [] {
        MainMemory mem;
        std::vector<std::uint8_t> buf(16 * 1024, 0xA5);
        const int passes = 20000;
        for (int p = 0; p < passes; ++p)
            mem.writeBytes(100, buf.data(), buf.size());
        // items = bytes written
        return static_cast<std::uint64_t>(passes) * buf.size();
    }));

    results.push_back(measure("SimpleCpuRun", reps, [&wl] {
        std::uint64_t insts = 0;
        for (int p = 0; p < 10; ++p) {
            Rig rig(wl.program);
            SimpleCpu &cpu = rig.build<SimpleCpu>();
            cpu.run(20'000'000'000ULL);
            insts += cpu.retired();
        }
        return insts;
    }));

    results.push_back(measure("OooCpuRun", reps, [&wl] {
        std::uint64_t insts = 0;
        for (int p = 0; p < 3; ++p) {
            Rig rig(wl.program);
            OooCpu &cpu = rig.build<OooCpu>();
            cpu.run(20'000'000'000ULL);
            insts += cpu.retired();
        }
        return insts;
    }));

    results.push_back(measure("OooCpuSimpleMode", reps, [&wl] {
        std::uint64_t insts = 0;
        for (int p = 0; p < 10; ++p) {
            Rig rig(wl.program);
            OooCpu &cpu = rig.build<OooCpu>(std::nullopt, true);
            cpu.run(20'000'000'000ULL);
            insts += cpu.retired();
        }
        return insts;
    }));

    // items = generated programs, so items/s is the fuzzer's serial
    // generate + lockstep-check rate.
    results.push_back(measure("VerifyLockstepProgram", reps, [] {
        const verify::GenParams gen;
        const std::uint64_t programs = 100;
        for (std::uint64_t s = 1; s <= programs; ++s)
            (void)verify::runLockstep(verify::generate(s, gen).program);
        return programs;
    }));

    const std::vector<Phase> phases =
        profileCampaignPhases(reps, max_cores);

    FILE *out = out_path ? fopen(out_path, "w") : stdout;
    if (!out) {
        fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    const HostInfo host = hostInfo();
    fprintf(out,
            "{\n  \"host\": {\"cpu_model\": \"%s\", \"cores\": %u, "
            "\"compiler\": \"%s\", \"build_type\": \"%s\"},\n",
            jsonEscape(host.cpuModel).c_str(), host.cores,
            jsonEscape(host.compiler).c_str(), host.buildType.c_str());
    fprintf(out, "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        fprintf(out,
                "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                "\"items_per_second\": %.0f}%s\n",
                r.name.c_str(), r.nsPerOp, r.itemsPerSecond,
                i + 1 < results.size() ? "," : "");
    }
    fprintf(out, "  ],\n  \"campaign_phases\": [\n");
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const Phase &p = phases[i];
        // Phases that simulate no instructions report wall time only:
        // a "sim_mips": 0.00 entry reads as a measured-but-terrible
        // rate, not as not-applicable.
        if (p.speedup > 0.0)
            fprintf(out,
                    "    {\"name\": \"%s\", \"wall_s\": %.4f, "
                    "\"speedup\": %.3f}%s\n",
                    p.name.c_str(), p.wallSeconds, p.speedup,
                    i + 1 < phases.size() ? "," : "");
        else if (p.instructions)
            fprintf(out,
                    "    {\"name\": \"%s\", \"wall_s\": %.4f, "
                    "\"instructions\": %llu, \"sim_mips\": %.2f}%s\n",
                    p.name.c_str(), p.wallSeconds,
                    static_cast<unsigned long long>(p.instructions),
                    p.simMips, i + 1 < phases.size() ? "," : "");
        else
            fprintf(out, "    {\"name\": \"%s\", \"wall_s\": %.4f}%s\n",
                    p.name.c_str(), p.wallSeconds,
                    i + 1 < phases.size() ? "," : "");
    }
    fprintf(out, "  ]\n}\n");
    if (out != stdout)
        fclose(out);
    return 0;
}
