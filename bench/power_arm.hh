/**
 * @file
 * One "arm" of the power experiments (Figs. 2-4): a processor + its
 * run-time system + a power meter, executing N periodic task
 * instances and reporting average power, chosen frequencies, and
 * safety counters.
 */

#ifndef VISA_BENCH_POWER_ARM_HH
#define VISA_BENCH_POWER_ARM_HH

#include <algorithm>
#include <cstdlib>

#include "core/experiment.hh"
#include "cpu/rig.hh"
#include "power/energy_model.hh"
#include "power/meter.hh"

namespace visa::bench
{

/** Result of running one experiment arm. */
struct ArmResult
{
    double avgPowerW = 0.0;
    MHz lastFSpec = 0;
    MHz lastFRec = 0;
    int deadlineMisses = 0;
    int checkpointMisses = 0;
    int badChecksums = 0;
};

/** Task-instance count (paper: 200; scaled default 60, see
 *  EXPERIMENTS.md; override with VISA_TASKS). */
inline int
taskCount()
{
    if (const char *env = std::getenv("VISA_TASKS"))
        return std::max(1, std::atoi(env));
    return 60;
}

/**
 * Run @p tasks instances of the benchmark on the VISA-compliant
 * complex processor under the EQ 4 run-time system.
 *
 * @param induce_every flush caches/predictors at the start of every
 *        induce_every-th task (0 = never) — the Fig. 4 mechanism
 */
inline ArmResult
runComplexArm(const ExperimentSetup &setup, double deadline,
              ClockGating gating, int tasks, int induce_every = 0)
{
    Rig rig(setup.wl.program);
    OooCpu &cpu = rig.build<OooCpu>();
    RuntimeConfig cfg = setup.runtimeConfig(deadline);
    VisaComplexRuntime rt(cpu, setup.wl.program, rig.mem(), setup.wcet,
                          setup.dvs, cfg);
    // Off-line PET seeding (Rotenberg): profile at the frequency the
    // solver would pick, iterating so the cycle counts are measured in
    // the right clock domain (memory stalls scale with frequency).
    MHz probe = setup.dvs.maxFreq();
    for (int it = 0; it < 3; ++it) {
        rt.pets().seed(profileComplexAets(
            setup.wl.program, setup.wl.numSubtasks, 1.03, probe));
        FreqPair pair = solveVisaSpeculation(
            setup.wcet, rt.pets(), setup.dvs, deadline, cfg.ovhdSeconds,
            cfg.overheadCyclesAtFspec());
        if (!pair.feasible || pair.fSpec == probe)
            break;
        probe = pair.fSpec;
    }
    PowerMeter meter(cpu, complexEnergyModel(), setup.dvs, gating);
    rt.attachMeter(&meter);

    ArmResult res;
    for (int t = 0; t < tasks; ++t) {
        // Offset the induced flushes from the re-evaluation tasks so
        // the PET refresh does not coincide with the disturbance.
        bool induce = induce_every > 0 &&
                      (t % induce_every) == induce_every / 2;
        TaskStats ts = rt.runTask(induce);
        res.lastFSpec = ts.fSpec;
        res.lastFRec = ts.fRec;
        if (!ts.checksumReported ||
            ts.checksum != setup.wl.expectedChecksum)
            ++res.badChecksums;
    }
    res.avgPowerW = meter.averagePowerWatts();
    res.deadlineMisses = rt.stats().deadlineMisses;
    res.checkpointMisses = rt.stats().checkpointMisses;
    return res;
}

/**
 * Run @p tasks instances on the explicitly-safe simple-fixed
 * processor (EQ 2 speculation only when beneficial).
 *
 * @param dvs DVS table for this processor (Fig. 3 passes the 1.5x
 *        frequency-advantage table)
 */
inline ArmResult
runSimpleFixedArm(const ExperimentSetup &setup, double deadline,
                  ClockGating gating, int tasks, const DvsTable &dvs,
                  const WcetTable &wcet, int induce_every = 0)
{
    Rig rig(setup.wl.program);
    SimpleCpu &cpu = rig.build<SimpleCpu>();
    SimpleFixedRuntime rt(cpu, setup.wl.program, rig.mem(), wcet, dvs,
                          setup.runtimeConfig(deadline));
    PowerMeter meter(cpu, simpleFixedEnergyModel(), dvs, gating);
    rt.attachMeter(&meter);

    ArmResult res;
    for (int t = 0; t < tasks; ++t) {
        bool induce = induce_every > 0 && (t % induce_every) == 0;
        TaskStats ts = rt.runTask(induce);
        res.lastFSpec = ts.fSpec;
        res.lastFRec = ts.fRec;
        if (!ts.checksumReported ||
            ts.checksum != setup.wl.expectedChecksum)
            ++res.badChecksums;
    }
    res.avgPowerW = meter.averagePowerWatts();
    res.deadlineMisses = rt.stats().deadlineMisses;
    res.checkpointMisses = rt.stats().checkpointMisses;
    return res;
}

/** Percentage power saving of @p complex_w relative to @p simple_w. */
inline double
savingsPercent(double complex_w, double simple_w)
{
    return 100.0 * (1.0 - complex_w / simple_w);
}

} // namespace visa::bench

#endif // VISA_BENCH_POWER_ARM_HH
