/**
 * @file
 * Tests for the forward-looking extensions the paper sketches:
 * conventional concurrency in the slack (§1.1) and parameterized WCET
 * metadata for timing-safe binary compatibility (§1.2).
 */

#include <gtest/gtest.h>

#include "core/concurrency.hh"
#include "core/experiment.hh"
#include "core/wcet_binary.hh"
#include "cpu/rig.hh"
#include "isa/assembler.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

// ---- Conventional concurrency (§1.1) ----

const char *backgroundSource = R"(
        addi r4, r0, 500
bg:     add  r5, r5, r4
        subi r4, r4, 1
        .loopbound 500
        bgtz r4, bg
        halt
)";

struct ConcurrencyStack : KernelAnalysis
{
    ConcurrencyStack()
        : KernelAnalysis("cnt"), bg(assemble(backgroundSource)),
          rig(wl.program)
    {
    }

    Program bg;
    Rig rig;
};

TEST(SlackScheduler, BackgroundWorkRunsInTheSlack)
{
    ConcurrencyStack s;
    OooCpu &cpu = s.rig.build<OooCpu>();
    RuntimeConfig cfg;
    cfg.deadlineSeconds = s.wcet.taskSeconds(600);
    cfg.ovhdSeconds = experimentOvhdSeconds;
    VisaComplexRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          cfg);
    rt.pets().seed(profileComplexAets(s.wl.program, s.wl.numSubtasks));

    SlackScheduler sched(rt, s.bg, s.dvs);
    for (int p = 0; p < 12; ++p) {
        TaskStats ts = sched.runPeriod();
        ASSERT_TRUE(ts.deadlineMet) << "period " << p;
        EXPECT_EQ(ts.checksum, s.wl.expectedChecksum);
    }
    // The hard task is untouched and the background task made real
    // progress, completing several times over.
    EXPECT_GT(sched.background().instructionsRetired, 10000u);
    EXPECT_GT(sched.background().completions, 2);
    EXPECT_GT(sched.background().slackSeconds, 0.0);
}

TEST(SlackScheduler, FasterProcessorYieldsMoreBackgroundThroughput)
{
    // The paper's point: the complex pipeline's earlier completions
    // buy more slack than the explicitly-safe pipeline's.
    ConcurrencyStack sc;
    OooCpu &ooo = sc.rig.build<OooCpu>();
    RuntimeConfig cfg;
    cfg.deadlineSeconds = sc.wcet.taskSeconds(600);
    cfg.ovhdSeconds = experimentOvhdSeconds;
    VisaComplexRuntime crt(ooo, sc.wl.program, sc.rig.mem(), sc.wcet,
                           sc.dvs, cfg);
    crt.pets().seed(profileComplexAets(sc.wl.program, sc.wl.numSubtasks));
    // Pin the complex processor to the top frequency: here slack is
    // harvested for throughput rather than for DVS (§1.1 lists these
    // as alternative uses).
    SlackScheduler csched(crt, sc.bg, sc.dvs);

    ConcurrencyStack ss;
    SimpleCpu &simple = ss.rig.build<SimpleCpu>();
    RuntimeConfig scfg;
    scfg.deadlineSeconds = ss.wcet.taskSeconds(600);
    scfg.ovhdSeconds = experimentOvhdSeconds;
    SimpleFixedRuntime srt(simple, ss.wl.program, ss.rig.mem(), ss.wcet,
                           ss.dvs, scfg);
    SlackScheduler ssched(srt, ss.bg, ss.dvs);

    for (int p = 0; p < 10; ++p) {
        csched.runPeriod();
        ssched.runPeriod();
    }
    EXPECT_GT(csched.background().slackSeconds,
              ssched.background().slackSeconds);
}

// ---- Parameterized WCET (§1.2) ----

class ParamWcetTest : public ::testing::Test
{
  protected:
    ParamWcetTest()
        : wl_(makeWorkload("cnt")), analyzer_(wl_.program),
          dmiss_(profileDataMisses(wl_.program)),
          param_(ParameterizedWcet::fit(analyzer_, dvs_, &dmiss_))
    {
    }

    Workload wl_;
    WcetAnalyzer analyzer_;
    DvsTable dvs_;
    DMissProfile dmiss_;
    ParameterizedWcet param_;
};

TEST_F(ParamWcetTest, DominatesTheAnalyzerAtEverySetting)
{
    for (const auto &s : dvs_.settings()) {
        WcetReport rep = analyzer_.analyze(s.freq, &dmiss_);
        EXPECT_GE(param_.taskCycles(s.freq, 100.0), rep.taskCycles)
            << s.freq;
        for (int k = 0; k < param_.numSubtasks(); ++k) {
            EXPECT_GE(param_.subtaskCycles(k, s.freq, 100.0),
                      rep.subtaskCycles[static_cast<std::size_t>(k)]);
        }
    }
}

TEST_F(ParamWcetTest, StaysReasonablyTight)
{
    WcetReport rep = analyzer_.analyze(1000, &dmiss_);
    EXPECT_LE(param_.taskCycles(1000, 100.0),
              rep.taskCycles + rep.taskCycles / 10);
}

TEST_F(ParamWcetTest, SlowerMemoryRaisesTheBound)
{
    Cycles native = param_.taskCycles(1000, 100.0);
    Cycles slow = param_.taskCycles(1000, 150.0);
    Cycles fast = param_.taskCycles(1000, 60.0);
    EXPECT_GT(slow, native);
    EXPECT_LT(fast, native);
}

TEST_F(ParamWcetTest, SerializationRoundTrips)
{
    std::string blob = param_.serialize();
    EXPECT_NE(blob.find("VISAWCET 1"), std::string::npos);
    ParameterizedWcet back = ParameterizedWcet::deserialize(blob);
    EXPECT_EQ(back.numSubtasks(), param_.numSubtasks());
    for (MHz f : {100u, 500u, 1000u})
        EXPECT_EQ(back.taskCycles(f, 100.0),
                  param_.taskCycles(f, 100.0));
}

TEST_F(ParamWcetTest, MalformedBlobsRejected)
{
    EXPECT_THROW(ParameterizedWcet::deserialize("garbage"), FatalError);
    EXPECT_THROW(ParameterizedWcet::deserialize("VISAWCET 2\n"),
                 FatalError);
    EXPECT_THROW(ParameterizedWcet::deserialize(
                     "VISAWCET 1\nmemns 100\nsubtasks 3\n1 2\n"),
                 FatalError);
}

TEST_F(ParamWcetTest, SafeOnADifferentVisaCompliantSystem)
{
    // The §1.2 scenario: the binary (with its appended WCET section)
    // moves to another VISA-compliant system whose memory is slower.
    // Instantiating the bound with that system's worst-case memory
    // latency must still cover execution on it.
    std::string shipped = param_.serialize();
    ParameterizedWcet on_target = ParameterizedWcet::deserialize(shipped);

    const double target_mem_ns = 140.0;
    Rig rig(wl_.program);
    rig.memctrl() = MemController({target_mem_ns, 30.0, 8});
    SimpleCpu &cpu = rig.build<SimpleCpu>(std::nullopt, false, 750);
    auto res = cpu.run(2'000'000'000ULL);
    ASSERT_EQ(res.reason, StopReason::Halted);
    EXPECT_GE(on_target.taskCycles(750, target_mem_ns), cpu.cycles());
}

} // anonymous namespace
} // namespace visa
