/**
 * @file
 * Determinism and API-contract tests: simulators must be bit-exact
 * across repeated runs (no hidden host-dependent state), the CFG's
 * topological order must respect forward edges, and the run-time
 * system must behave identically given identical inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/concurrency.hh"
#include "core/experiment.hh"
#include "core/runtime.hh"
#include "cpu/rig.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"
#include "tests/test_util.hh"
#include "wcet/analyzer.hh"
#include "wcet/cfg.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

TEST(Determinism, OooCpuIsBitExactAcrossRuns)
{
    Workload wl = makeWorkload("fft");
    Cycles first = 0;
    for (int i = 0; i < 3; ++i) {
        Rig rig(wl.program);
        OooCpu &cpu = rig.build<OooCpu>();
        cpu.run(20'000'000'000ULL);
        if (i == 0)
            first = cpu.cycles();
        else
            EXPECT_EQ(cpu.cycles(), first) << "run " << i;
        EXPECT_EQ(rig.platform().lastChecksum(), wl.expectedChecksum);
    }
}

TEST(Determinism, WorkloadGeneratorsAreStable)
{
    // Generators embed LCG-derived data; two constructions must be
    // identical (golden values are compile-time stable).
    Workload a = makeWorkload("srt");
    Workload b = makeWorkload("srt");
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.expectedChecksum, b.expectedChecksum);
}

TEST(Determinism, AnalyzerIsStableAcrossConstructions)
{
    Workload wl = makeWorkload("cnt");
    WcetAnalyzer a(wl.program);
    WcetAnalyzer b(wl.program);
    for (MHz f : {100u, 1000u})
        EXPECT_EQ(a.analyze(f).taskCycles, b.analyze(f).taskCycles);
}

TEST(CfgTopoOrder, RespectsForwardEdges)
{
    Workload wl = makeWorkload("adpcm");
    Cfg cfg(wl.program, wl.program.entry);
    const auto &topo = cfg.topoOrder();
    ASSERT_EQ(topo.size(), cfg.blocks().size());
    std::vector<int> pos(topo.size());
    for (std::size_t i = 0; i < topo.size(); ++i)
        pos[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
    for (const auto &bb : cfg.blocks()) {
        for (int s : bb.succs) {
            bool is_back = false;
            for (const auto &l : cfg.loops())
                if (l.header == s && l.backedgeTail == bb.id)
                    is_back = true;
            if (!is_back) {
                EXPECT_LT(pos[static_cast<std::size_t>(bb.id)],
                          pos[static_cast<std::size_t>(s)])
                    << bb.id << " -> " << s;
            }
        }
    }
}

TEST(RuntimeHistogramPolicy, RunsSafelyEndToEnd)
{
    const KernelAnalysis a("mm");
    Rig rig(a.wl.program);
    RuntimeConfig cfg;
    cfg.deadlineSeconds = a.wcet.taskSeconds(650);
    cfg.ovhdSeconds = experimentOvhdSeconds;
    cfg.petPolicy.kind = PetPolicy::Histogram;
    cfg.petPolicy.targetMissRate = 0.1;
    VisaComplexRuntime rt(rig.build<OooCpu>(), a.wl.program, rig.mem(),
                          a.wcet, a.dvs, cfg);
    rt.pets().seed(profileComplexAets(a.wl.program, a.wl.numSubtasks));
    for (int t = 0; t < 15; ++t) {
        TaskStats ts = rt.runTask();
        EXPECT_TRUE(ts.deadlineMet) << t;
        EXPECT_EQ(ts.checksum, a.wl.expectedChecksum);
    }
    EXPECT_EQ(rt.stats().deadlineMisses, 0);
}

TEST(SlackEdgeCases, NoBackgroundWorkWithoutSlack)
{
    // A deadline equal to the static requirement leaves ~no slack at
    // the floor frequency; the scheduler must grant ~nothing and must
    // not disturb the hard task.
    const KernelAnalysis a("cnt");
    Rig rig(a.wl.program);
    RuntimeConfig cfg;
    cfg.deadlineSeconds = a.wcet.taskSeconds(1000) * 1.001;
    cfg.ovhdSeconds = experimentOvhdSeconds;
    SimpleFixedRuntime rt(rig.build<SimpleCpu>(), a.wl.program, rig.mem(),
                          a.wcet, a.dvs, cfg);
    Program bg = assemble("idle:   j idle_done\nidle_done: halt");
    SlackScheduler sched(rt, bg, a.dvs);
    TaskStats ts = sched.runPeriod();
    EXPECT_TRUE(ts.deadlineMet);
    // The hard task runs near the top setting: slack per period is a
    // sliver of the deadline.
    EXPECT_LT(sched.background().slackSeconds,
              cfg.deadlineSeconds * 0.8);
}

/** One campaign arm: both pipelines on one benchmark. */
struct ArmResult
{
    Cycles simpleCycles = 0;
    Cycles complexCycles = 0;
    Word simpleChecksum = 0;
    Word complexChecksum = 0;

    bool operator==(const ArmResult &) const = default;
};

ArmResult
runArm(const Workload &wl)
{
    ArmResult r;
    {
        Rig rig(wl.program);
        SimpleCpu &cpu = rig.build<SimpleCpu>();
        cpu.run(20'000'000'000ULL);
        r.simpleCycles = cpu.cycles();
        r.simpleChecksum = rig.platform().lastChecksum();
    }
    {
        Rig rig(wl.program);
        OooCpu &cpu = rig.build<OooCpu>();
        cpu.run(20'000'000'000ULL);
        r.complexCycles = cpu.cycles();
        r.complexChecksum = rig.platform().lastChecksum();
    }
    return r;
}

/** Run one benchmark on the complex pipeline under a tracer and
 *  return the JSONL dump (the byte-stable trace wire format). */
std::string
runTracedArm(const Workload &wl)
{
    Rig rig(wl.program);
    OooCpu &cpu = rig.build<OooCpu>();
    Tracer tracer(1 << 22);
    {
        ScopedTracer scope(tracer);
        cpu.run(20'000'000'000ULL);
    }
    std::ostringstream os;
    tracer.writeJsonl(os);
    return os.str();
}

TEST(Determinism, TracesAreByteIdenticalAcrossPools)
{
    // The tracer is installed per thread, so parallel arms observe only
    // their own rig's events: a pooled campaign must produce the exact
    // bytes a serial run produces, whatever VISA_THREADS says.
    const std::vector<std::string> names = {"cnt", "fir"};
    std::vector<Workload> wls;
    for (const auto &n : names)
        wls.push_back(makeWorkload(n));

    std::vector<std::string> serial(wls.size());
    for (std::size_t i = 0; i < wls.size(); ++i)
        serial[i] = runTracedArm(wls[i]);

    std::vector<std::string> pooled(wls.size());
    {
        test::ScopedThreads four("4");
        parallelFor(wls.size(), [&](std::size_t i) {
            pooled[i] = runTracedArm(wls[i]);
        });
    }

    for (std::size_t i = 0; i < wls.size(); ++i) {
        EXPECT_FALSE(serial[i].empty()) << names[i];
        EXPECT_EQ(pooled[i], serial[i]) << names[i];
    }
}

TEST(Determinism, PooledCampaignMatchesSerialBitExactly)
{
    // The campaign binaries run their per-benchmark arms on the thread
    // pool; the results they collect must be bit-identical to a serial
    // run of the same arms, in the same (input) order.
    const std::vector<std::string> names = {"cnt", "srt", "fir"};
    std::vector<Workload> wls;
    for (const auto &n : names)
        wls.push_back(makeWorkload(n));

    std::vector<ArmResult> serial(wls.size());
    for (std::size_t i = 0; i < wls.size(); ++i)
        serial[i] = runArm(wls[i]);

    std::vector<ArmResult> pooled(wls.size());
    {
        test::ScopedThreads four("4");
        parallelFor(wls.size(), [&](std::size_t i) {
            pooled[i] = runArm(wls[i]);
        });
    }

    for (std::size_t i = 0; i < wls.size(); ++i) {
        EXPECT_EQ(pooled[i], serial[i]) << names[i];
        EXPECT_EQ(pooled[i].simpleChecksum, wls[i].expectedChecksum);
    }
}

} // anonymous namespace
} // namespace visa
