/**
 * @file
 * End-to-end run-time system tests: the hard safety invariants T3
 * (no deadline misses, ever — including induced mispredictions) and
 * T4 (missed checkpoints recover within budget), plus PET adaptation,
 * frequency-speculation behavior over many task instances, and the
 * EQ 4-infeasible fallback.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/runtime.hh"
#include "cpu/rig.hh"
#include "power/meter.hh"
#include "sim/logging.hh"

namespace visa
{
namespace
{

/** Full experiment stack around one workload: its analysis and a rig. */
struct Stack : KernelAnalysis
{
    explicit Stack(const std::string &name)
        : KernelAnalysis(name), rig(wl.program)
    {
    }

    Rig rig;
};

TEST(RuntimeComplex, AllTasksMeetDeadlineAndChecksum)
{
    Stack s("cnt");
    OooCpu &cpu = s.rig.build<OooCpu>();
    double d = s.wcet.taskSeconds(600);
    VisaComplexRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          experimentRuntimeConfig(d));
    for (int t = 0; t < 24; ++t) {
        TaskStats ts = rt.runTask();
        EXPECT_TRUE(ts.deadlineMet) << "task " << t;
        EXPECT_TRUE(ts.checksumReported);
        EXPECT_EQ(ts.checksum, s.wl.expectedChecksum) << "task " << t;
        EXPECT_LE(ts.fSpec, ts.fRec);
    }
    EXPECT_EQ(rt.stats().deadlineMisses, 0);
    EXPECT_EQ(rt.stats().tasks, 24);
}

TEST(RuntimeComplex, PetAdaptationLowersFrequency)
{
    Stack s("mm");
    OooCpu &cpu = s.rig.build<OooCpu>();
    double d = s.wcet.taskSeconds(700);
    VisaComplexRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          experimentRuntimeConfig(d));
    MHz first = rt.runTask().fSpec;
    MHz last = first;
    for (int t = 1; t < 22; ++t)
        last = rt.runTask().fSpec;
    // Histories replace the conservative WCET seeds: f_spec drops.
    EXPECT_LT(last, first);
    EXPECT_EQ(rt.stats().deadlineMisses, 0);
}

TEST(RuntimeComplex, InducedMissesRecoverSafely)
{
    // T3/T4 under stress: a near-minimum deadline plus cache flushes.
    Stack s("cnt");
    OooCpu &cpu = s.rig.build<OooCpu>();

    // The tightest feasible deadline with profiled PETs.
    const double min_d = minGuaranteeableDeadline(
        s.wcet, s.dvs, profileComplexAets(s.wl.program, s.wl.numSubtasks),
        experimentRuntimeConfig());

    VisaComplexRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          experimentRuntimeConfig(min_d * 1.01));
    rt.pets().seed(profileComplexAets(s.wl.program, s.wl.numSubtasks,
                                      1.02));
    int misses = 0;
    for (int t = 0; t < 18; ++t) {
        bool induce = (t % 6) == 3;
        TaskStats ts = rt.runTask(induce);
        EXPECT_TRUE(ts.deadlineMet) << "task " << t;
        EXPECT_EQ(ts.checksum, s.wl.expectedChecksum);
        if (ts.missedCheckpoint) {
            ++misses;
            EXPECT_GE(ts.missedSubtask, 1);
            EXPECT_LE(ts.missedSubtask, s.wl.numSubtasks);
        }
    }
    EXPECT_EQ(rt.stats().deadlineMisses, 0);
    EXPECT_EQ(rt.stats().checkpointMisses, misses);
}

TEST(RuntimeComplex, InfeasibleSpeculationFallsBackToSafeMode)
{
    Stack s("cnt");
    OooCpu &cpu = s.rig.build<OooCpu>();
    // A deadline only the static schedule satisfies: PETs seeded at
    // the WCETs make EQ 4 infeasible (ovhd eats the slack).
    double d = s.wcet.taskSeconds(1000) * 1.002;
    VisaComplexRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          experimentRuntimeConfig(d));
    TaskStats ts = rt.runTask();
    EXPECT_FALSE(ts.speculating);
    EXPECT_TRUE(ts.deadlineMet);
    EXPECT_EQ(ts.checksum, s.wl.expectedChecksum);
    EXPECT_EQ(cpu.mode(), OooCpu::Mode::Simple);
}

TEST(RuntimeComplex, InfeasibleDeadlineIsFatal)
{
    Stack s("cnt");
    OooCpu &cpu = s.rig.build<OooCpu>();
    const double d = s.wcet.taskSeconds(1000) * 0.5;
    VisaComplexRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          experimentRuntimeConfig(d));
    EXPECT_THROW(rt.runTask(), FatalError);
}

TEST(RuntimeSimpleFixed, StaticScheduleWhenWcetIsTight)
{
    Stack s("mm");
    SimpleCpu &cpu = s.rig.build<SimpleCpu>();
    double d = s.wcet.taskSeconds(700);
    SimpleFixedRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          experimentRuntimeConfig(d));
    TaskStats ts = rt.runTask();
    // With WCET-seeded PETs, EQ 2 cannot beat the static frequency on
    // the first task.
    EXPECT_FALSE(ts.speculating);
    EXPECT_EQ(ts.fSpec, 700u);
    EXPECT_TRUE(ts.deadlineMet);
    EXPECT_EQ(ts.checksum, s.wl.expectedChecksum);
}

TEST(RuntimeSimpleFixed, SpeculationEngagesWhenItLowersFrequency)
{
    Stack s("srt");    // srt's WCET is ~2x its typical time
    SimpleCpu &cpu = s.rig.build<SimpleCpu>();
    double d = s.wcet.taskSeconds(700);
    SimpleFixedRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          experimentRuntimeConfig(d));
    MHz static_f = 0;
    bool speculated = false;
    for (int t = 0; t < 24; ++t) {
        TaskStats ts = rt.runTask();
        ASSERT_TRUE(ts.deadlineMet) << "task " << t;
        EXPECT_EQ(ts.checksum, s.wl.expectedChecksum);
        if (t == 0)
            static_f = ts.fSpec;
        if (ts.speculating) {
            speculated = true;
            EXPECT_LT(ts.fSpec, static_f);
        }
    }
    EXPECT_TRUE(speculated);
    EXPECT_EQ(rt.stats().deadlineMisses, 0);
}

TEST(RuntimeMetering, ComplexBeatsSimpleFixedPowerAtEqualDeadline)
{
    // The headline claim of the paper, as a regression test: at a
    // comfortable deadline the VISA-compliant complex processor
    // consumes measurably less power than simple-fixed.
    auto run_power = [](bool use_complex) {
        Stack s("mm");
        double d = s.wcet.taskSeconds(700);
        if (use_complex) {
            OooCpu &cpu = s.rig.build<OooCpu>();
            VisaComplexRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet,
                                  s.dvs, experimentRuntimeConfig(d));
            rt.pets().seed(
                profileComplexAets(s.wl.program, s.wl.numSubtasks));
            PowerMeter meter(cpu, complexEnergyModel(), s.dvs,
                             ClockGating::Perfect);
            rt.attachMeter(&meter);
            for (int t = 0; t < 12; ++t)
                rt.runTask();
            EXPECT_EQ(rt.stats().deadlineMisses, 0);
            return meter.averagePowerWatts();
        }
        SimpleCpu &cpu = s.rig.build<SimpleCpu>();
        SimpleFixedRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet,
                              s.dvs, experimentRuntimeConfig(d));
        PowerMeter meter(cpu, simpleFixedEnergyModel(), s.dvs,
                         ClockGating::Perfect);
        rt.attachMeter(&meter);
        for (int t = 0; t < 12; ++t)
            rt.runTask();
        EXPECT_EQ(rt.stats().deadlineMisses, 0);
        return meter.averagePowerWatts();
    };
    double p_complex = run_power(true);
    double p_simple = run_power(false);
    EXPECT_GT(p_simple, 0.0);
    EXPECT_LT(p_complex, p_simple);
}

TEST(RuntimeIncremental, SlicedInstanceMatchesRunTask)
{
    // The incremental instance API (beginInstance / stepInstance /
    // finishInstance) must reproduce runTask() exactly: same retired
    // count, checksum, speculation choice and busy time, regardless of
    // how the instance is sliced.
    Stack whole("cnt");
    Stack sliced("cnt");
    const double d = whole.wcet.taskSeconds(600);

    OooCpu &cpu_w = whole.rig.build<OooCpu>();
    VisaComplexRuntime rt_w(cpu_w, whole.wl.program, whole.rig.mem(),
                            whole.wcet, whole.dvs,
                            experimentRuntimeConfig(d));
    const TaskStats ref = rt_w.runTask();

    OooCpu &cpu_s = sliced.rig.build<OooCpu>();
    VisaComplexRuntime rt_s(cpu_s, sliced.wl.program, sliced.rig.mem(),
                            sliced.wcet, sliced.dvs,
                            experimentRuntimeConfig(d));
    rt_s.beginInstance();
    ASSERT_TRUE(rt_s.instanceActive());
    int slices = 0;
    while (true) {
        const StepResult sr = rt_s.stepInstance(4000);
        ++slices;
        if (sr.completed)
            break;
        ASSERT_LT(slices, 100000);
    }
    const TaskStats got = rt_s.finishInstance();
    EXPECT_FALSE(rt_s.instanceActive());

    EXPECT_GT(slices, 1);
    EXPECT_EQ(got.retired, ref.retired);
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.fSpec, ref.fSpec);
    EXPECT_EQ(got.deadlineMet, ref.deadlineMet);
    EXPECT_NEAR(got.completionSeconds, ref.completionSeconds,
                1e-12 + 1e-9 * ref.completionSeconds);
}

TEST(RuntimeIncremental, ForcedMissRecoversAcrossDrainedSlices)
{
    // A forced watchdog expiry while the instance is being sliced and
    // drained at every scheduling point (the preemption pattern) must
    // take the normal recovery path and still finish correctly.
    Stack s("cnt");
    const double d = s.wcet.taskSeconds(600);
    OooCpu &cpu = s.rig.build<OooCpu>();
    VisaComplexRuntime rt(cpu, s.wl.program, s.rig.mem(), s.wcet, s.dvs,
                          experimentRuntimeConfig(d));

    rt.forceNextMiss();
    rt.beginInstance();
    bool recovered = false;
    int slices = 0;
    while (true) {
        StepResult sr = rt.stepInstance(2000);
        recovered = recovered || sr.recovered;
        if (sr.completed)
            break;
        // Drain to a preemption point between every pair of slices.
        sr = rt.preemptDrain();
        recovered = recovered || sr.recovered;
        ASSERT_FALSE(sr.completed);
        ++slices;
        ASSERT_LT(slices, 100000);
    }
    const TaskStats ts = rt.finishInstance();
    EXPECT_TRUE(recovered);
    EXPECT_TRUE(ts.missedCheckpoint);
    EXPECT_TRUE(ts.deadlineMet);
    EXPECT_EQ(ts.checksum, s.wl.expectedChecksum);
    EXPECT_EQ(rt.stats().checkpointMisses, 1);
    EXPECT_EQ(rt.stats().deadlineMisses, 0);
}

TEST(RuntimeProfiling, ComplexAetProfileCoversSubtasks)
{
    Workload wl = makeWorkload("fft");
    auto aets = profileComplexAets(wl.program, wl.numSubtasks, 1.1);
    ASSERT_EQ(static_cast<int>(aets.size()), wl.numSubtasks);
    for (auto a : aets)
        EXPECT_GT(a, 0u);
    // The margin scales the values.
    auto tight = profileComplexAets(wl.program, wl.numSubtasks, 1.0);
    for (std::size_t i = 0; i < aets.size(); ++i)
        EXPECT_GE(aets[i], tight[i]);
}

} // anonymous namespace
} // namespace visa
