/**
 * @file
 * Ablations of the run-time system's design choices (DESIGN.md):
 *
 * 1. PET selection policy (§4.3): last-N maximum vs histogram with a
 *    target misprediction rate, under a disturbed workload (20% of
 *    tasks flushed). The paper: "Targeting a non-zero misprediction
 *    rate may result in a lower speculative frequency. However, this
 *    must be weighed against running in high-power recovery mode more
 *    often." This harness quantifies exactly that trade-off.
 *
 * 2. Reconfiguration-overhead sensitivity: how the ovhd term of
 *    EQ 1-4 constrains the speculative frequency and the savings as
 *    it grows from 0.5 us to 8 us (scaled tasks; see EXPERIMENTS.md).
 */

#include <cstdio>

#include "bench/power_arm.hh"

using namespace visa;
using namespace visa::bench;

namespace
{

struct PolicyResult
{
    double powerW = 0.0;
    int checkpointMisses = 0;
    int deadlineMisses = 0;
    MHz lastFSpec = 0;
};

PolicyResult
runPolicy(const ExperimentSetup &setup, double deadline,
          const PetPolicy &policy, int tasks, int induce_every)
{
    Rig rig(setup.wl.program);
    OooCpu &cpu = rig.build<OooCpu>();
    RuntimeConfig cfg = setup.runtimeConfig(deadline);
    cfg.petPolicy = policy;
    VisaComplexRuntime rt(cpu, setup.wl.program, rig.mem(), setup.wcet,
                          setup.dvs, cfg);
    rt.pets().seed(profileComplexAets(setup.wl.program,
                                      setup.wl.numSubtasks, 1.03));
    PowerMeter meter(cpu, complexEnergyModel(), setup.dvs,
                     ClockGating::Perfect);
    rt.attachMeter(&meter);
    PolicyResult res;
    for (int t = 0; t < tasks; ++t) {
        bool induce = induce_every > 0 &&
                      (t % induce_every) == induce_every / 2;
        TaskStats ts = rt.runTask(induce);
        res.lastFSpec = ts.fSpec;
    }
    res.powerW = meter.averagePowerWatts();
    res.checkpointMisses = rt.stats().checkpointMisses;
    res.deadlineMisses = rt.stats().deadlineMisses;
    return res;
}

} // anonymous namespace

int
main()
{
    const int tasks = taskCount();

    std::printf("Ablation 1: PET policy under disturbance (20%% of "
                "tasks flushed), benchmark mm, %d tasks\n\n", tasks);
    std::printf("%-22s %9s %7s %10s %9s\n", "policy", "power(W)",
                "f_spec", "ckpt-miss", "dl-miss");
    const ExperimentSetup setup("mm");
    const double d = 1.02 * setup.minDeadline;

    struct NamedPolicy
    {
        const char *name;
        PetPolicy policy;
    } policies[] = {
        {"last-10 max", {PetPolicy::LastN, 10, 0.0, 64}},
        {"histogram p=0", {PetPolicy::Histogram, 10, 0.0, 64}},
        {"histogram p=0.15", {PetPolicy::Histogram, 10, 0.15, 64}},
        {"histogram p=0.25", {PetPolicy::Histogram, 10, 0.25, 64}},
    };
    int dl_misses = 0;
    for (const auto &np : policies) {
        PolicyResult r = runPolicy(setup, d, np.policy, tasks, 5);
        std::printf("%-22s %9.3f %7u %10d %9d\n", np.name, r.powerW,
                    r.lastFSpec, r.checkpointMisses, r.deadlineMisses);
        dl_misses += r.deadlineMisses;
    }
    std::printf("expected shape: higher target miss rates trade more "
                "recovery episodes for a lower f_spec; deadlines always"
                " met\n\n");

    std::printf("Ablation 2: switch-overhead sensitivity, benchmark "
                "adpcm, tight deadline, %d tasks\n\n", tasks);
    std::printf("%10s %9s %9s %8s\n", "ovhd(us)", "Psimp(W)",
                "Pcplx(W)", "save%");
    const ExperimentSetup base("adpcm");
    for (double ovhd_us : {0.5, 2.0, 4.0, 8.0}) {
        // Rebuild arms with the modified overhead.
        auto cfg_of = [&](double dl) {
            RuntimeConfig cfg = base.runtimeConfig(dl);
            cfg.ovhdSeconds = ovhd_us * 1e-6;
            return cfg;
        };
        double dl = base.tightDeadline + (ovhd_us - 2.0) * 1e-6;

        Rig crig(base.wl.program);
        OooCpu &ccpu = crig.build<OooCpu>();
        VisaComplexRuntime crt(ccpu, base.wl.program, crig.mem(),
                               base.wcet, base.dvs, cfg_of(dl));
        crt.pets().seed(profileComplexAets(base.wl.program,
                                           base.wl.numSubtasks, 1.03));
        PowerMeter cmeter(ccpu, complexEnergyModel(), base.dvs,
                          ClockGating::Perfect);
        crt.attachMeter(&cmeter);

        Rig srig(base.wl.program);
        SimpleCpu &scpu = srig.build<SimpleCpu>();
        SimpleFixedRuntime srt(scpu, base.wl.program, srig.mem(),
                               base.wcet, base.dvs, cfg_of(dl));
        PowerMeter smeter(scpu, simpleFixedEnergyModel(), base.dvs,
                          ClockGating::Perfect);
        srt.attachMeter(&smeter);

        for (int t = 0; t < tasks; ++t) {
            crt.runTask();
            srt.runTask();
        }
        dl_misses +=
            crt.stats().deadlineMisses + srt.stats().deadlineMisses;
        std::printf("%10.1f %9.3f %9.3f %7.1f%%\n", ovhd_us,
                    smeter.averagePowerWatts(),
                    cmeter.averagePowerWatts(),
                    savingsPercent(cmeter.averagePowerWatts(),
                                   smeter.averagePowerWatts()));
    }
    std::printf("expected shape: larger switch overheads erode the "
                "savings (less of the slack is usable)\n");
    std::printf("\ndeadline misses across all ablation arms: %d "
                "(must be 0)\n", dl_misses);
    return dl_misses == 0 ? 0 : 1;
}
