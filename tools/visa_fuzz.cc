/**
 * @file
 * visa-fuzz: differential fuzzing driver for the verification harness
 * (src/verify). Generates seeded random VPISA programs, runs each one
 * on the in-order reference pipeline and the out-of-order candidate in
 * lockstep, and periodically cross-checks the paper's timing
 * invariants with the oracle. Batches are scanned in parallel
 * (sim/parallel.hh); results are deterministic for a given
 * {seed, count, profile} triple regardless of thread count.
 *
 * On the first failure the driver prints the divergence report,
 * optionally shrinks the program with the instruction-deletion
 * minimizer (--minimize), and optionally writes a repro file in the
 * tests/corpus format (--out DIR). --replay FILE re-runs a saved repro
 * and exits non-zero if it still fails — the regression-replay tests
 * are built on that mode.
 *
 * --inject CLASS|matrix switches the harness to the fault-injection
 * campaign (verify/inject.hh): every program gets one seeded transient
 * fault from the chosen class (or the whole matrix, round-robin),
 * runs under the restart-recovery runtime, and is classified as
 * detected-by-watchdog / detected-by-lockstep / silent. The campaign
 * prints a per-class coverage table with detection-latency and
 * deadline-cost statistics; silent-data-corruption escapes are written
 * as corpus repros with --out. --trace-jsonl additionally records one
 * demo run's full fault/recovery event trace for the schema tools.
 * With --cores 2 (or more) the campaign additionally runs the
 * FlexStep-style paired-core vote on every fired fault — a spare core
 * re-executes the sub-task in simple mode and the boundary states are
 * compared — and the table gains a paired detected/checked column, so
 * the spare-core detector's coverage can be read off against the
 * watchdog and the lockstep checker.
 *
 * (The historical --inject-load-ext-bug alias was removed; use
 * --inject load-ext, which is the same persistent subword-load
 * sign-extension fault through the fault matrix.)
 *
 * --coverage switches the harness to coverage-guided exploration:
 * every program runs once on the in-order pipeline under a block
 * profiler and its structural block/edge signatures (sim/prof/
 * coverage.hh) are folded into a cumulative AFL-style bitmap. Programs
 * that light up new bits are "interesting" and are kept as corpus
 * seeds when --out is given. The per-batch merge is sequential in scan
 * order, so the cumulative coverage curve is deterministic for a given
 * {seed, count, profile} regardless of VISA_THREADS.
 *
 * --cross-check-timing switches the harness: instead of the
 * architectural lockstep, every program runs on the event-driven
 * OooCpu and the frozen per-cycle reference stepper (verify/
 * timing_cross.hh) and the complete cycle-stamped event streams are
 * compared. A deterministic quarter of the corpus additionally drains
 * into simple mode mid-run and back, covering the reconfiguration
 * paths. This is the continuous proof that the event-driven timing
 * core is cycle-for-cycle identical to the historical model.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/rig.hh"
#include "isa/assembler.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/prof/coverage.hh"
#include "sim/prof/prof.hh"
#include "verify/corpus.hh"
#include "verify/inject.hh"
#include "verify/lockstep.hh"
#include "verify/minimize.hh"
#include "verify/oracle.hh"
#include "verify/progen.hh"
#include "verify/timing_cross.hh"

using namespace visa;
using namespace visa::verify;

namespace
{

struct Options
{
    std::uint64_t seed = 1;
    std::uint64_t count = 1000;
    GenProfile profile = GenProfile::Mixed;
    int statements = 48;
    std::uint64_t maxInstructions = 2'000'000;
    /** Run the timing oracle on every Kth program (0 = never). */
    std::uint64_t oracleEvery = 512;
    bool minimize = false;
    bool crossCheckTiming = false;
    bool coverage = false;
    std::string outDir;
    std::string replayPath;
    /** Fault-injection campaign: a class name or "matrix" (empty =
     *  campaign off). */
    std::string injectArg;
    /** Write the demo run's fault/recovery trace here (campaign only). */
    std::string traceJsonlPath;
    /** Chip width; >= 2 arms the paired-core vote in --inject runs. */
    int cores = 1;
};

/** One recorded failure, keyed by scan index for determinism. */
struct Failure
{
    std::uint64_t index = 0;
    std::uint64_t seed = 0;
    std::string kind;    ///< "divergence", "timeout", or "oracle"
    std::string report;
    std::string source;
};

LockstepOptions
lockstepOptions(const Options &opts)
{
    LockstepOptions lo;
    lo.maxInstructions = opts.maxInstructions;
    return lo;
}

TimingCrossOptions
timingCrossOptions(std::uint64_t seed)
{
    TimingCrossOptions xo;
    // A deterministic quarter of the corpus also exercises the
    // reconfiguration drains: switch to simple mode at a seed-derived
    // cycle (so the drain catches the window in many states), dwell,
    // and switch back.
    if (seed % 4 == 0)
        xo.modeSwitchAtCycle = 1024 + (seed % 7) * 512;
    return xo;
}

int
replay(const Options &opts)
{
    const ReproCase rc = loadRepro(opts.replayPath);
    const Program prog = assemble(rc.source);
    const LockstepResult r = runLockstep(prog, lockstepOptions(opts));
    if (r.equivalent) {
        std::printf("replay %s: equivalent (%llu instructions)\n",
                    opts.replayPath.c_str(),
                    static_cast<unsigned long long>(r.instructions));
        return 0;
    }
    std::printf("replay %s: %s\n%s\n", opts.replayPath.c_str(),
                r.diverged ? "DIVERGED" : "TIMED OUT",
                r.report.c_str());
    return 1;
}

/** Shrink a failing source; @return minimized source (or the input). */
std::string
minimizeFailure(const Options &opts, const std::string &source)
{
    LockstepOptions lo = lockstepOptions(opts);
    // Candidates that loop forever after a deleted decrement must be
    // rejected quickly, not after the full scan cap.
    lo.maxInstructions =
        std::min<std::uint64_t>(opts.maxInstructions, 200'000);
    lo.traceTail = 0;
    TimingCrossOptions xo;
    xo.maxCycles = 1'000'000;
    const MinimizeResult m =
        minimizeSource(source, [&](const Program &p) {
            // Deleting a jump or halt can send a candidate's PC off the
            // end of the text segment (a PanicError) — reject it, the
            // same way a timeout is rejected.
            try {
                return opts.crossCheckTiming
                           ? runTimingCross(p, xo).diverged
                           : runLockstep(p, lo).diverged;
            } catch (const std::exception &) {
                return false;
            }
        });
    std::fprintf(stderr,
                 "minimized to %zu instructions (%d candidates)\n",
                 m.instructions, m.candidates);
    return m.source;
}

/**
 * Coverage-guided scan: run every generated program under a block
 * profiler, fold its structural block/edge signatures into one
 * cumulative bitmap, and keep the programs that discover new bits as
 * corpus seeds. Profiling runs in parallel; the bitmap merge is
 * sequential in scan-index order so the coverage curve (and the kept
 * seed set) is identical for any VISA_THREADS.
 */
int
coverageScan(const Options &opts)
{
    GenParams gen;
    gen.profile = opts.profile;
    gen.statements = opts.statements;

    prof::CoverageMap map;
    std::uint64_t interesting = 0, kept = 0, lastPop = 0;
    const auto t0 = std::chrono::steady_clock::now();
    constexpr std::uint64_t batch = 256;
    for (std::uint64_t base = 0; base < opts.count; base += batch) {
        const std::size_t n = static_cast<std::size_t>(
            std::min(batch, opts.count - base));
        std::vector<std::vector<std::uint64_t>> feats(n);
        std::vector<std::string> sources(n);
        parallelFor(n, [&](std::size_t i) {
            const std::uint64_t seed = opts.seed + base + i;
            const GeneratedProgram g = generate(seed, gen);
            Rig rig(g.program);
            SimpleCpu &cpu = rig.build<SimpleCpu>();
            prof::BlockProfiler profiler(g.program);
            {
                prof::ScopedProfiler scope(profiler);
                // Cycle budget, so runaway loops stop; a truncated run
                // still contributes the coverage it reached.
                cpu.run(opts.maxInstructions);
            }
            feats[i] = prof::coverageFeatures(profiler, g.program);
            sources[i] = g.source;
        });
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t fresh = map.add(feats[i]);
            if (!fresh)
                continue;
            ++interesting;
            if (!opts.outDir.empty()) {
                const std::uint64_t seed = opts.seed + base + i;
                ReproCase rc;
                rc.seed = seed;
                rc.profile = profileName(opts.profile);
                rc.note = "coverage seed (+" + std::to_string(fresh) +
                          " features)";
                rc.source = sources[i];
                const std::string path = opts.outDir + "/cov_seed_" +
                                         std::to_string(seed) + ".s";
                if (saveRepro(path, rc))
                    ++kept;
                else
                    std::fprintf(stderr, "cannot write %s\n",
                                 path.c_str());
            }
        }
        std::printf("scanned %8llu programs: coverage %8llu bits "
                    "(+%llu), %llu interesting\n",
                    static_cast<unsigned long long>(base + n),
                    static_cast<unsigned long long>(map.population()),
                    static_cast<unsigned long long>(map.population() -
                                                    lastPop),
                    static_cast<unsigned long long>(interesting));
        lastPop = map.population();
    }

    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 -
                                                                  t0)
            .count();
    std::printf("%llu programs, %llu coverage bits (%.2f%% of map), "
                "%llu interesting, %.2f s (%.0f programs/s)\n",
                static_cast<unsigned long long>(opts.count),
                static_cast<unsigned long long>(map.population()),
                100.0 * static_cast<double>(map.population()) /
                    static_cast<double>(map.sizeBits()),
                static_cast<unsigned long long>(interesting), secs,
                secs > 0 ? static_cast<double>(opts.count) / secs : 0);
    if (kept)
        std::printf("%llu coverage seeds written to %s\n",
                    static_cast<unsigned long long>(kept),
                    opts.outDir.c_str());
    return 0;
}

/**
 * The fault-injection campaign: N programs x the chosen fault classes
 * (round-robin by scan index), each injected, run under the
 * restart-recovery runtime, and classified. Deterministic for a given
 * {seed, count, classes} regardless of VISA_THREADS.
 */
int
injectCampaign(const Options &opts)
{
    std::vector<FaultClass> classes;
    if (opts.injectArg == "matrix") {
        for (int c = 0; c < numFaultClasses; ++c)
            classes.push_back(static_cast<FaultClass>(c));
    } else {
        FaultClass c;
        if (!parseFaultClass(opts.injectArg.c_str(), c))
            fatal("unknown fault class '%s' (use 'matrix' or one of "
                  "the class names)",
                  opts.injectArg.c_str());
        classes.push_back(c);
    }

    InjectRunOptions io;
    io.profile = opts.profile;
    io.statements = opts.statements;
    io.maxInstructions = opts.maxInstructions;
    // A second core spares the paired-core detector: every fired fault
    // is also voted at the sub-task boundary by a simple-mode twin.
    io.pairedCheck = opts.cores >= 2;

    if (!opts.traceJsonlPath.empty()) {
        // Demo trace carrying every fault/recovery event kind. No
        // single run shows all three (a lockstep-detected fault never
        // restarts, and rare-victim classes cannot fire inside the
        // short complex window before a forced expiry), so the export
        // is two legs: a naturally detected run of the requested
        // class, plus a forced-expiry run for the restart path. Seeds
        // are probed untraced first so the file holds only the two
        // demonstrative runs.
        Tracer tracer(1 << 16);
        InjectRunOptions dio = io;
        InjectRunOptions fio = io;
        fio.forceMiss = true;
        fio.triggerFirst = true;
        const auto probe = [&](const InjectRunOptions &o, auto &&pred) {
            for (std::uint64_t s = opts.seed; s < opts.seed + 64; ++s)
                if (pred(runInjectProgram(s, classes.front(), o)))
                    return s;
            return opts.seed;
        };
        const std::uint64_t fire_seed =
            probe(dio, [](const InjectRunResult &r) {
                return r.outcome == InjectOutcome::DetectedWatchdog ||
                       r.outcome == InjectOutcome::DetectedLockstep;
            });
        const std::uint64_t restart_seed =
            probe(fio, [](const InjectRunResult &r) {
                return r.restarts > 0;
            });
        dio.trace = &tracer;
        fio.trace = &tracer;
        runInjectProgram(fire_seed, classes.front(), dio);
        runInjectProgram(restart_seed, classes.front(), fio);
        std::ofstream os(opts.traceJsonlPath);
        if (!os)
            fatal("cannot write %s", opts.traceJsonlPath.c_str());
        tracer.writeJsonl(os);
        std::printf("fault/recovery trace written to %s\n",
                    opts.traceJsonlPath.c_str());
    }

    const auto t0 = std::chrono::steady_clock::now();
    const InjectCampaignResult res = runInjectCampaign(
        opts.seed, opts.count, classes, io,
        [](std::uint64_t done, std::uint64_t total) {
            std::fprintf(stderr, "injected %llu/%llu programs\r",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(total));
        });
    std::fprintf(stderr, "\n");
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 -
                                                                  t0)
            .count();

    std::printf("%s", formatCoverageTable(res).c_str());
    std::printf("%llu injected programs, %zu silent-corruption "
                "escapes, %.2f s (%.0f programs/s)\n",
                static_cast<unsigned long long>(res.programs),
                res.escapes.size(), secs,
                secs > 0 ? static_cast<double>(res.programs) / secs : 0);

    if (!opts.outDir.empty()) {
        for (const InjectRunResult &e : res.escapes) {
            ReproCase rc;
            rc.seed = e.seed;
            rc.profile = profileName(opts.profile);
            rc.note = std::string("silent corruption escape, class ") +
                      faultClassName(e.cls) +
                      " (reproduce: visa-fuzz --inject " +
                      faultClassName(e.cls) + " --seed " +
                      std::to_string(e.seed) + " --count 1)";
            rc.source = e.source;
            const std::string path =
                opts.outDir + "/inj_" + faultClassName(e.cls) + "_" +
                std::to_string(e.seed) + ".s";
            if (saveRepro(path, rc))
                std::printf("escape repro written to %s\n",
                            path.c_str());
            else
                std::fprintf(stderr, "cannot write %s\n", path.c_str());
        }
    }
    return res.escapes.empty() ? 0 : 1;
}

int
fuzz(const Options &opts)
{
    GenParams gen;
    gen.profile = opts.profile;
    gen.statements = opts.statements;

    std::atomic<std::uint64_t> instructions{0};
    std::mutex failMutex;
    std::vector<Failure> failures;
    const auto record = [&](Failure f) {
        std::lock_guard<std::mutex> lock(failMutex);
        failures.push_back(std::move(f));
    };

    const auto t0 = std::chrono::steady_clock::now();
    constexpr std::uint64_t batch = 256;
    std::uint64_t done = 0;
    for (std::uint64_t base = 0; base < opts.count; base += batch) {
        const std::size_t n = static_cast<std::size_t>(
            std::min(batch, opts.count - base));
        parallelFor(n, [&](std::size_t i) {
            const std::uint64_t index = base + i;
            const std::uint64_t seed = opts.seed + index;
            const GeneratedProgram g = generate(seed, gen);
            if (opts.crossCheckTiming) {
                const TimingCrossResult x =
                    runTimingCross(g.program, timingCrossOptions(seed));
                instructions += x.eventsCompared;
                if (!x.equivalent)
                    record({index, seed,
                            x.diverged ? "timing-divergence"
                                       : "timing-timeout",
                            x.report, g.source});
                return;
            }
            const LockstepResult r =
                runLockstep(g.program, lockstepOptions(opts));
            instructions += r.instructions;
            if (!r.equivalent) {
                record({index, seed,
                        r.diverged ? "divergence" : "timeout",
                        r.report, g.source});
                return;
            }
            if (opts.oracleEvery && index % opts.oracleEvery == 0) {
                GenParams og = gen;
                og.instrument = true;
                og.allowCalls = false;
                const GeneratedProgram inst = generate(seed, og);
                const OracleResult o = runTimingOracle(inst);
                if (!o.ok)
                    record({index, seed, "oracle", o.report,
                            inst.source});
            }
        });
        done += n;
        if (done % 2048 == 0 || done == opts.count || !failures.empty())
            std::fprintf(stderr, "scanned %llu/%llu programs\r",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(opts.count));
        if (!failures.empty())
            break;    // finish the batch, then stop deterministically
    }
    std::fprintf(stderr, "\n");

    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 -
                                                                  t0)
            .count();
    std::printf("%llu programs, %llu %s, %.2f s "
                "(%.0f programs/s)\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(instructions.load()),
                opts.crossCheckTiming ? "timing events compared"
                                      : "instructions",
                secs, secs > 0 ? static_cast<double>(done) / secs : 0);

    if (failures.empty()) {
        std::printf("no divergences\n");
        return 0;
    }

    // Report the earliest failure in scan order: independent of thread
    // count, the same {seed, count} always names the same culprit.
    std::sort(failures.begin(), failures.end(),
              [](const Failure &a, const Failure &b) {
                  return a.index < b.index;
              });
    const Failure &f = failures.front();
    std::printf("FAILURE (%s) at seed %llu (program %llu):\n%s\n",
                f.kind.c_str(),
                static_cast<unsigned long long>(f.seed),
                static_cast<unsigned long long>(f.index),
                f.report.c_str());

    std::string source = f.source;
    if (opts.minimize &&
        (f.kind == "divergence" || f.kind == "timing-divergence"))
        source = minimizeFailure(opts, source);
    else if (opts.minimize)
        std::fprintf(stderr,
                     "not minimizing a %s failure (only concrete "
                     "divergences shrink soundly)\n",
                     f.kind.c_str());

    if (!opts.outDir.empty()) {
        ReproCase rc;
        rc.seed = f.seed;
        rc.profile = profileName(opts.profile);
        rc.note = f.kind;
        rc.source = source;
        const std::string path = opts.outDir + "/seed_" +
                                 std::to_string(f.seed) + ".s";
        if (saveRepro(path, rc))
            std::printf("repro written to %s\n", path.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
    } else if (opts.minimize) {
        std::printf("minimized source:\n%s", source.c_str());
    }
    return 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliParser cli("visa-fuzz");
    std::string &seed = cli.flag("--seed", "N", "first seed", "1");
    std::string &count =
        cli.flag("--count", "N", "programs to test", "1000");
    std::string &threads = addThreadsFlag(cli);
    std::string &profile = cli.flag(
        "--profile", "P", "alu | branch | memory | mixed", "mixed");
    std::string &statements = cli.flag(
        "--statements", "N", "top-level statements per program", "48");
    std::string &max_insts = cli.flag("--max-insts", "N",
                                      "lockstep instruction cap",
                                      "2000000");
    std::string &oracle_every =
        cli.flag("--oracle-every", "K",
                 "timing oracle on every Kth program (0 = off)", "512");
    bool &minimize =
        cli.boolFlag("--minimize", "shrink the first failing program");
    std::string &out_dir =
        cli.flag("--out", "DIR", "write a repro file for the failure");
    std::string &replay_path =
        cli.flag("--replay", "FILE",
                 "re-run a saved repro, exit 1 if it still fails");
    std::string &inject_class = cli.flag(
        "--inject", "C",
        "fault-injection campaign: a class name (reg-bit-flip, "
        "load-value, load-addr, store-addr, branch-dir, branch-target, "
        "decode-imm, wakeup-stall, load-ext) or 'matrix' for all");
    std::string &trace_jsonl = cli.flag(
        "--trace-jsonl", "FILE",
        "with --inject: record a demo run's fault/recovery trace");
    std::string &cores_flag = addCoresFlag(cli);
    bool &cross_timing = cli.boolFlag(
        "--cross-check-timing",
        "compare the event-driven core against the per-cycle "
        "reference stepper instead of the architectural lockstep");
    bool &coverage = cli.boolFlag(
        "--coverage",
        "coverage-guided scan: profile every program, track "
        "cumulative block/edge coverage, keep discovering seeds "
        "(--out DIR)");
    bool &no_block_cache = addNoBlockCacheFlag(cli);
    std::string &debug = addDebugFlag(cli);

    try {
        cli.parse(argc, argv);
        applyDebugFlag(debug);
        // Must precede the first parallelFor: simThreads() reads the
        // exported count once.
        applyThreadsFlag(threads);
        // Must precede rig construction: each ExecCore latches the
        // default when built.
        if (no_block_cache)
            ExecCore::setBlockCacheDefault(false);

        Options opts;
        opts.seed = parseIntFlag<std::uint64_t>("--seed", seed);
        opts.count = parseIntFlag<std::uint64_t>("--count", count, 1);
        if (!parseProfile(profile.c_str(), opts.profile))
            fatal("unknown profile '%s'", profile.c_str());
        opts.statements = parseIntFlag("--statements", statements, 1);
        opts.maxInstructions =
            parseIntFlag<std::uint64_t>("--max-insts", max_insts, 1);
        opts.oracleEvery =
            parseIntFlag<std::uint64_t>("--oracle-every", oracle_every);
        opts.minimize = minimize;
        opts.crossCheckTiming = cross_timing;
        opts.coverage = coverage;
        opts.outDir = out_dir;
        opts.replayPath = replay_path;
        opts.injectArg = inject_class;
        opts.traceJsonlPath = trace_jsonl;
        opts.cores = parseCoresFlag(cores_flag);

        if (!opts.replayPath.empty())
            return replay(opts);
        if (!opts.injectArg.empty())
            return injectCampaign(opts);
        if (opts.coverage)
            return coverageScan(opts);
        return fuzz(opts);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 2;
    }
}
