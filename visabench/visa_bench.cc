/**
 * @file
 * visa-bench: the repository benchmark, one workload per process.
 *
 *   visa-bench --workload W --seed S [--seconds 10] [--rounds 3]
 *              [--scale 1] [--trace FILE] [-o FILE]
 *   visa-bench --list
 *   visa-bench --compare DIR_A DIR_B
 *
 * A run sets up five times (setup_s is the median), runs one untimed
 * warm-up round, then timed rounds of identical simulated work until
 * --seconds have passed and at least --rounds are done; sim_mips is the
 * median round rate. Every round's digest must equal the warm-up's and
 * every unit must pass its checks, or the report says "ok": false and
 * the exit code is 1. --trace then adds a traced set-up and one traced
 * round for the per-layer metrics (written to FILE as Chrome trace
 * JSON); no end-to-end metric comes from traced work.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include <time.h>

#include "report.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace visa;
using namespace visa::vbench;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr int setupRuns = 5;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/**
 * Peak resident set of this process image, MB. Read from VmHWM rather
 * than getrusage(): ru_maxrss survives exec, so it would report the
 * launching process's peak when that one was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;    // kB
    fatal("cannot read VmHWM from /proc/self/status");
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
parseNumber(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(text, &used);
        if (used == text.size() && std::isfinite(v))
            return v;
    } catch (const std::exception &) {
    }
    fatal("%s: '%s' is not a number", flag.c_str(), text.c_str());
}

void
setThreads(unsigned n)
{
    setenv("VISA_THREADS", std::to_string(n).c_str(), 1);
}

void
listWorkloads(std::FILE *out)
{
    for (const WorkloadInfo &w : workloadList())
        std::fprintf(out, "%-15s %s\n", w.name, w.why);
}

/** The simulated per-layer counters; all deterministic. */
void
addModelledCounters(std::vector<Metric> &m, const Counters &c)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m.push_back({"cpu.ooo.ipc", ratio(d(c.complexRetired),
                                      d(c.complexCycles)), "inst/cycle"});
    m.push_back({"cpu.ooo.branch_mpki",
                 ratio(1000.0 * d(c.branchMispredicts),
                       d(c.complexRetired)),
                 "1/kinst"});
    m.push_back({"mem.l1d.miss_rate",
                 ratio(d(c.l1dMisses), d(c.l1dAccesses)), "ratio"});
    m.push_back({"mem.l1i.miss_rate",
                 ratio(d(c.l1iMisses), d(c.l1iAccesses)), "ratio"});
    m.push_back({"cpu.block_cache.hit_ratio",
                 ratio(d(c.blockHits), d(c.blockHits + c.blocksDecoded)),
                 "ratio"});
    m.push_back({"core.runtime.checkpoint_miss_rate",
                 ratio(d(c.checkpointMisses), d(c.instances)), "ratio"});
    m.push_back({"core.runtime.fspec_mhz_mean",
                 ratio(c.fSpecSum, d(c.fSpecCount)), "MHz"});
    m.push_back({"core.runtime.simple_mhz_mean",
                 ratio(c.fSimpleSum, d(c.fSimpleCount)), "MHz"});
    m.push_back({"core.runtime.restarts_per_job",
                 ratio(d(c.restarts), d(c.instances)), "count"});
    m.push_back({"core.runtime.restart_pages_per_restart",
                 ratio(d(c.restartPages), d(c.restarts)), "pages"});
    m.push_back({"core.sched.preemptions_per_job",
                 ratio(d(c.preemptions), d(c.instances)), "count"});
    m.push_back({"core.sched.context_switches_per_job",
                 ratio(d(c.contextSwitches), d(c.instances)), "count"});
    m.push_back({"core.sched.freq_changes_per_job",
                 ratio(d(c.freqChanges), d(c.instances)), "count"});
    m.push_back({"chip.bus.requests_per_kinst",
                 ratio(1000.0 * d(c.busRequests), d(c.instructions)),
                 "1/kinst"});
    m.push_back({"chip.bus.l2_hit_ratio",
                 ratio(d(c.l2Hits), d(c.busRequests)), "ratio"});
    // Simulated time, not host time: deterministic for a seed.
    m.push_back({"chip.bus.bank_wait_simns_per_req",
                 ratio(d(c.bankWaitNs), d(c.busRequests)), "sim-ns/req"});
    m.push_back({"chip.bus.mshr_wait_simns_per_req",
                 ratio(d(c.mshrWaitNs), d(c.busRequests)), "sim-ns/req"});
    m.push_back({"verify.insts_per_program",
                 ratio(d(c.programInstructions), d(c.programs)), "inst"});
}

/** Which layer a span's self time is charged to (first match wins). */
const struct
{
    const char *prefix;
    const char *metric;
} layerOfSpan[] = {
    {"sim.builder.", "layer.builder_pct"},
    {"core.runtime.step", "layer.cpu_pct"},
    {"core.runtime.", "layer.runtime_pct"},
    {"core.sched.", "layer.sched_pct"},
    {"verify.progen", "layer.progen_pct"},
    {"verify.", "layer.verify_pct"},
    {"bench.", "layer.bench_pct"},
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/**
 * The traced part of a run: a step-by-step set-up and one round under
 * spans, then (multi-threaded workloads) one untraced round at
 * VISA_THREADS=1. Adds the host-time per-layer metrics to @p rep.
 */
void
tracedRun(BenchWorkload &wl, RunReport &rep, std::uint64_t ref_digest,
          double median_round_s, const std::string &trace_file)
{
    SpanLog log;
    setSpanLog(&log);
    {
        SpanScope span("bench.setup");
        wl.setup();
    }
    Counters tc;
    {
        SpanScope span("bench.round");
        wl.round(tc);
    }
    setSpanLog(nullptr);
    if (tc.digest != ref_digest)
        rep.problems.push_back("the traced round's digest differs");

    double speedup = 1.0;    // single-threaded workloads: t1 by definition
    if (rep.threads > 1) {
        setThreads(1);
        Counters c1;
        const auto t0 = Clock::now();
        wl.round(c1);
        speedup = secondsSince(t0) / median_round_s;
        setThreads(rep.threads);
        if (c1.digest != ref_digest)
            rep.problems.push_back(
                "the VISA_THREADS=1 round's digest differs");
    }

    rep.spans = summarize(log);
    const auto total = [&](const char *name) {
        for (const SpanSummary &s : rep.spans)
            if (s.name == name)
                return s.totalMs;
        return 0.0;
    };
    for (const char *step : {"assemble", "wcet", "dmiss", "calibrate",
                             "deadline_search"})
        rep.metrics.push_back({std::string("setup.") + step + "_ms",
                               total((std::string("setup.") + step)
                                         .c_str()),
                               "ms"});

    std::vector<double> unitMs;
    double loopNs = 0.0;
    double loopInsts = 0.0;
    for (const Span &s : log.spans()) {
        const double ns = static_cast<double>(s.endNs - s.startNs);
        if (std::string(s.name) == "bench.unit")
            unitMs.push_back(1e-6 * ns);
        if (s.work) {
            loopNs += ns;
            loopInsts += static_cast<double>(s.work);
        }
    }
    rep.metrics.push_back({"round.unit_ms_p50", median(unitMs), "ms"});
    rep.metrics.push_back(
        {"sim.loop_ns_per_inst", ratio(loopNs, loopInsts), "ns/inst"});

    std::map<std::string, double> layerSelfMs;
    for (const SpanSummary &s : rep.spans) {
        if (s.name == "bench.setup" || startsWith(s.name, "setup."))
            continue;    // the shares are of the round only
        for (const auto &l : layerOfSpan) {
            if (startsWith(s.name, l.prefix)) {
                layerSelfMs[l.metric] += s.selfMs;
                break;
            }
        }
    }
    const double roundMs = total("bench.round");
    for (const auto &l : layerOfSpan)
        rep.metrics.push_back(
            {l.metric, 100.0 * ratio(layerSelfMs[l.metric], roundMs), "%"});
    rep.metrics.push_back(
        {"bench.trace_overhead_pct",
         100.0 * (1e-3 * roundMs / median_round_s - 1.0), "%"});
    rep.metrics.push_back({"sim.parallel.speedup_t1", speedup, "ratio"});

    std::ofstream out(trace_file);
    if (!out)
        fatal("cannot write %s", trace_file.c_str());
    log.writeChromeTrace(out);
}

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : workloadList())
        if (name == w.name)
            return &w;
    return nullptr;
}

int
runBenchmark(const std::string &name, std::uint64_t seed, double scale,
             double seconds, int min_rounds, const std::string &trace_file,
             const std::string &out_file)
{
    const WorkloadInfo *info = findWorkload(name);
    RunReport rep;
    rep.workload = name;
    rep.seed = seed;
    rep.scale = scale;
    rep.seconds = seconds;
    rep.threads =
        info->hostParallel
            ? std::clamp(std::thread::hardware_concurrency(), 1u, 4u)
            : 1u;
    setThreads(rep.threads);

    auto wl = makeBenchWorkload(name, seed, scale);
    for (int i = 0; i < setupRuns; ++i) {
        const auto t0 = Clock::now();
        wl->setup();
        rep.setupSeconds.push_back(secondsSince(t0));
    }

    double boundCycles = 0.0;
    double observedCycles = 0.0;
    for (const auto &a : wl->analysed()) {
        const Cycles bound = a->wcet->taskCycles(a->dvs.maxFreq());
        boundCycles += static_cast<double>(bound);
        observedCycles += static_cast<double>(a->simpleCycles);
        ++rep.attempted;
        if (bound < a->simpleCycles) {
            ++rep.failed;
            rep.problems.push_back(a->wl.name +
                                   ": WCET bound below the observed "
                                   "execution time");
        }
    }

    Counters warm;
    wl->round(warm);
    rep.digest = warm.digest;

    Counters last;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    while (static_cast<int>(rep.rounds.size()) < min_rounds ||
           secondsSince(t0) < seconds) {
        Counters c;
        const auto r0 = Clock::now();
        wl->round(c);
        rep.rounds.push_back({secondsSince(r0), c.instructions});
        if (c.digest != rep.digest)
            rep.problems.push_back(
                "round " + std::to_string(rep.rounds.size()) +
                " digest differs from the warm-up round's");
        rep.attempted += c.units;
        rep.failed += c.failed;
        for (const std::string &f : c.failures)
            if (rep.problems.size() < 10)
                rep.problems.push_back(f);
        last = std::move(c);
    }
    const double cpuPerWall =
        (processCpuSeconds() - cpu0) / secondsSince(t0);
    const double rss = peakRssMb();

    std::vector<double> walls;
    for (const RoundRecord &r : rep.rounds)
        walls.push_back(r.wallSeconds);
    const double medianRound = median(walls);
    rep.metrics.push_back({"setup_s", median(rep.setupSeconds), "s"});
    rep.metrics.push_back(
        {"sim_mips",
         static_cast<double>(last.instructions) / 1e6 / medianRound,
         "Minst/s"});
    rep.metrics.push_back({"peak_rss_mb", rss, "MB"});
    rep.metrics.push_back(
        {"wcet_overestimate", ratio(boundCycles, observedCycles), "ratio"});
    if (!last.energySavingsPct.empty()) {
        double sum = 0.0;
        for (double s : last.energySavingsPct)
            sum += s;
        rep.metrics.push_back(
            {"energy_saving_pct",
             sum / static_cast<double>(last.energySavingsPct.size()),
             "%"});
    }
    if (std::isfinite(last.minSlackFrac))
        rep.metrics.push_back(
            {"min_slack_frac", last.minSlackFrac, "ratio"});
    addModelledCounters(rep.metrics, last);
    rep.metrics.push_back({"sim.parallel.cpu_per_wall", cpuPerWall,
                           "ratio"});

    if (!trace_file.empty())
        tracedRun(*wl, rep, rep.digest, medianRound, trace_file);

    rep.ok = rep.failed == 0 && rep.problems.empty();
    printSummary(std::cerr, rep);
    if (out_file.empty()) {
        writeReport(std::cout, rep);
    } else {
        std::ofstream out(out_file);
        if (!out)
            fatal("cannot write %s", out_file.c_str());
        writeReport(out, rep);
    }
    return rep.ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("visa-bench", "DIR_B",
                  "second report directory of --compare");
    std::string &workload =
        cli.flag("--workload", "NAME", "workload to run (see --list)");
    std::string &seed = cli.flag("--seed", "N", "input seed", "1");
    std::string &seconds = cli.flag(
        "--seconds", "S", "measure timed rounds for this long", "10");
    std::string &rounds =
        cli.flag("--rounds", "N", "at least this many timed rounds", "3");
    std::string &scale =
        cli.flag("--scale", "X", "multiply the units per round", "1");
    std::string &trace = cli.flag(
        "--trace", "FILE",
        "add the traced run; write its Chrome trace JSON here");
    std::string &out =
        cli.flag("-o", "FILE", "write the report here (default stdout)");
    bool &list = cli.boolFlag("--list", "list the workloads and exit");
    std::string &compare = cli.flag(
        "--compare", "DIR_A",
        "compare the reports in DIR_A and DIR_B against the bounds in "
        "./BENCHMARK.json");

    std::uint64_t seedValue = 0;
    double scaleValue = 0.0;
    double secondsValue = 0.0;
    int roundsValue = 0;
    try {
        cli.parse(argc, argv);
        if (list) {
            listWorkloads(stdout);
            return 0;
        }
        if (!compare.empty()) {
            if (cli.positional().empty())
                fatal("--compare needs two directories");
            return compareReports(compare, cli.positional(),
                                  "BENCHMARK.json");
        }
        if (!cli.positional().empty())
            fatal("unexpected argument '%s'", cli.positional().c_str());
        if (!findWorkload(workload)) {
            std::fprintf(stderr, "unknown --workload '%s'; the "
                                 "workloads are:\n",
                         workload.c_str());
            listWorkloads(stderr);
            return 2;
        }
        const double s = parseNumber("--seed", seed);
        if (s < 0 || s != std::floor(s) || s > 9.0e15)
            fatal("--seed must be a whole number >= 0");
        seedValue = static_cast<std::uint64_t>(s);
        scaleValue = parseNumber("--scale", scale);
        if (!(scaleValue > 0.0))
            fatal("--scale must be > 0");
        secondsValue = parseNumber("--seconds", seconds);
        if (secondsValue < 0.0)
            fatal("--seconds must be >= 0");
        const double r = parseNumber("--rounds", rounds);
        if (r < 1 || r != std::floor(r) || r > 1e6)
            fatal("--rounds must be a whole number >= 1");
        roundsValue = static_cast<int>(r);
    } catch (const FatalError &) {
        return 2;    // fatal() has printed the reason
    }

    try {
        return runBenchmark(workload, seedValue, scaleValue, secondsValue,
                            roundsValue, trace, out);
    } catch (const FatalError &) {
        return 1;
    }
}
