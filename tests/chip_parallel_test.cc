/**
 * @file
 * Deterministic parallel chip execution tests: the epoch-buffered
 * multi-core engines (free-run Chip::runAll and the scheduler under
 * both placements) must produce bit-identical stats JSON and trace
 * JSONL for any VISA_THREADS setting; the paired-core detector must
 * vote the same way under the threaded dispatcher; runAll must charge
 * only the cycles the cores actually consume; and the shared
 * --cores/--affinity CLI validation must reject garbage with the
 * offending value.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "chip/chip.hh"
#include "chip/paired.hh"
#include "core/experiment.hh"
#include "core/scheduler.hh"
#include "sim/builder.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "tests/test_util.hh"
#include "verify/inject.hh"
#include "workloads/clab.hh"
#include "workloads/tasksets.hh"

namespace visa
{
namespace
{

using test::ScopedThreads;

/** Everything a determinism comparison needs from one run. */
struct RunCapture
{
    std::string statsJson;
    std::string traceJsonl;
    std::uint64_t retired = 0;
};

RunCapture
freeRunChip(int cores)
{
    Tracer tracer(1 << 16);
    tracer.setKindMask(Tracer::maskFor("mem"));
    auto c = SimBuilder()
                 .workload("mm")
                 .cpu(CpuKind::Complex)
                 .cores(cores)
                 .buildChip();
    RunCapture cap;
    {
        ScopedTracer install(tracer);
        const chip::Chip::RunAllResult r = c->runAll(20'000'000'000ULL);
        EXPECT_TRUE(r.allHalted);
        cap.retired = r.retired;
    }
    StatSet set;
    c->buildStats(set);
    std::ostringstream stats, trace;
    set.dumpJson(stats);
    tracer.writeJsonl(trace);
    cap.statsJson = stats.str();
    cap.traceJsonl = trace.str();
    return cap;
}

RunCapture
scheduledRun(int cores, PlacementPolicy placement)
{
    SchedulerConfig cfg;
    cfg.cores = cores;
    cfg.placement = placement;
    Tracer tracer(1 << 16);
    tracer.setKindMask(Tracer::maskFor("sched"));
    MultiTaskScheduler sched(cfg);
    for (const SchedTaskDef &d :
         makeTaskSetDefs(parseTaskSet("clab6"), 0.8))
        sched.addTask(d);
    EXPECT_EQ(sched.admissionError(), "");
    RunCapture cap;
    {
        ScopedTracer install(tracer);
        const ScheduleOutcome out = sched.run(3);
        EXPECT_EQ(out.deadlineMisses, 0);
    }
    for (int t = 0; t < sched.numTasks(); ++t)
        cap.retired += sched.taskStats(t).retired;
    StatSet set;
    sched.buildStats(set);
    std::ostringstream stats, trace;
    set.dumpJson(stats);
    tracer.writeJsonl(trace);
    cap.statsJson = stats.str();
    cap.traceJsonl = trace.str();
    return cap;
}

/** @p run at 2 and 4 cores: VISA_THREADS 2 and 8 must reproduce the
 *  VISA_THREADS=1 capture byte for byte. */
void
expectThreadInvariant(const std::function<RunCapture(int)> &run)
{
    for (int cores : {2, 4}) {
        RunCapture ref;
        {
            ScopedThreads threads("1");
            ref = run(cores);
        }
        EXPECT_FALSE(ref.traceJsonl.empty());
        for (const char *threads : {"2", "8"}) {
            ScopedThreads pin(threads);
            const RunCapture cur = run(cores);
            EXPECT_EQ(cur.statsJson, ref.statsJson)
                << "cores=" << cores << " threads=" << threads;
            EXPECT_EQ(cur.traceJsonl, ref.traceJsonl)
                << "cores=" << cores << " threads=" << threads;
            EXPECT_EQ(cur.retired, ref.retired);
        }
    }
}

// ---- threaded == serial, bit for bit ----

TEST(ChipParallel, FreeRunBitIdenticalAcrossThreadCounts)
{
    expectThreadInvariant(freeRunChip);
}

TEST(ChipParallel, PartitionedScheduleBitIdenticalAcrossThreadCounts)
{
    expectThreadInvariant([](int cores) {
        return scheduledRun(cores, PlacementPolicy::Partitioned);
    });
}

TEST(ChipParallel, GlobalScheduleBitIdenticalAcrossThreadCounts)
{
    // The serial driver never fans out, but it shares the engine and
    // the bus epochs with the concurrent one: the worker-pool setting
    // must stay unobservable here too.
    expectThreadInvariant([](int cores) {
        return scheduledRun(cores, PlacementPolicy::Global);
    });
}

// ---- paired detector under the threaded dispatcher ----

TEST(ChipParallel, PairedDetectorMatchesSerialUnderThreads)
{
    const Workload wl = makeWorkload("cnt");
    chip::PairedCheckResult ref;
    {
        ScopedThreads threads("1");
        ref = chip::runPairedCheck(wl.program, nullptr,
                                   20'000'000'000ULL);
    }
    ScopedThreads threads("8");
    const chip::PairedCheckResult r =
        chip::runPairedCheck(wl.program, nullptr, 20'000'000'000ULL);
    EXPECT_FALSE(r.detected) << r.report;
    EXPECT_EQ(r.detected, ref.detected);
    EXPECT_EQ(r.victimRetired, ref.victimRetired);
    EXPECT_EQ(r.spareRetired, ref.spareRetired);
}

TEST(ChipParallel, InjectedPairedOutcomesMatchSerial)
{
    verify::InjectRunOptions io;
    io.pairedCheck = true;
    for (std::uint64_t seed : {1, 5, 9}) {
        verify::InjectRunResult serial, threaded;
        {
            ScopedThreads threads("1");
            serial = verify::runInjectProgram(
                seed, verify::FaultClass::LoadExt, io);
        }
        {
            ScopedThreads threads("8");
            threaded = verify::runInjectProgram(
                seed, verify::FaultClass::LoadExt, io);
        }
        EXPECT_EQ(serial.outcome, threaded.outcome) << "seed " << seed;
        EXPECT_EQ(serial.pairedDetected, threaded.pairedDetected);
        EXPECT_EQ(serial.checksum, threaded.checksum);
    }
}

// ---- window accounting ----

TEST(ChipParallel, RunAllChargesActualCyclesNotFullWindows)
{
    // Measure how many cycles the longest-running core actually needs,
    // then re-run with exactly that budget: a chip that charged the
    // full window for a quantum in which the cores halted early would
    // run out of budget before the final (partial) quantum.
    const Cycles window = 5000;
    auto probe = SimBuilder()
                     .workload("cnt")
                     .cpu(CpuKind::Complex)
                     .cores(2)
                     .buildChip();
    ASSERT_TRUE(probe->runAll(20'000'000'000ULL, window).allHalted);
    const Cycles need = std::max(probe->core(0).ooo().cycles(),
                                 probe->core(1).ooo().cycles());
    EXPECT_NE(need % window, 0u);    // the interesting case

    auto exact = SimBuilder()
                     .workload("cnt")
                     .cpu(CpuKind::Complex)
                     .cores(2)
                     .buildChip();
    const chip::Chip::RunAllResult r = exact->runAll(need, window);
    EXPECT_TRUE(r.allHalted);
    EXPECT_EQ(r.retired, probe->core(0).ooo().retired() +
                             probe->core(1).ooo().retired());
}

// ---- CLI validation ----

TEST(ChipParallel, CoresFlagRejectsGarbage)
{
    EXPECT_EQ(parseCoresFlag(""), 1);
    EXPECT_EQ(parseCoresFlag("4"), 4);
    EXPECT_THROW(parseCoresFlag("abc"), FatalError);
    EXPECT_THROW(parseCoresFlag("4x"), FatalError);
    EXPECT_THROW(parseCoresFlag("0"), FatalError);
    EXPECT_THROW(parseCoresFlag("-2"), FatalError);
    EXPECT_THROW(parseCoresFlag("65"), FatalError);
}

TEST(ChipParallel, AffinityPinsValidatedAgainstCores)
{
    EXPECT_NO_THROW(validateAffinity({1, -1, 0}, 2));
    EXPECT_NO_THROW(validateAffinity({}, 1));
    EXPECT_THROW(validateAffinity({0, 2}, 2), FatalError);
    EXPECT_THROW(validateAffinity({4}, 4), FatalError);
}

} // anonymous namespace
} // namespace visa
