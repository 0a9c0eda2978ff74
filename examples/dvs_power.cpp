/**
 * @file
 * The full §4 pipeline on one benchmark: frequency speculation (EQ 4)
 * on the VISA-compliant complex processor vs the explicitly-safe
 * simple-fixed processor, with power metering — a miniature of the
 * Figure 2 experiment with a per-task trace.
 *
 *   $ ./examples/dvs_power [benchmark] [tasks]   (default: mm 20)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.hh"
#include "cpu/rig.hh"
#include "power/meter.hh"

using namespace visa;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "mm";
    int tasks = argc > 2 ? std::atoi(argv[2]) : 20;

    const KernelAnalysis kernel(name);
    const Workload &wl = kernel.wl;

    // A deadline around the 700 MHz operating point of simple-fixed.
    const RuntimeConfig cfg =
        experimentRuntimeConfig(kernel.wcet.taskSeconds(700));
    std::printf("== DVS on '%s': deadline %.1f us, %d tasks ==\n\n",
                name.c_str(), cfg.deadlineSeconds * 1e6, tasks);

    // --- the VISA-compliant complex processor ---
    Rig crig(wl.program);
    OooCpu &ooo = crig.build<OooCpu>();
    VisaComplexRuntime crt(ooo, wl.program, crig.mem(), kernel.wcet,
                           kernel.dvs, cfg);
    crt.pets().seed(profileComplexAets(wl.program, wl.numSubtasks));
    PowerMeter cmeter(ooo, complexEnergyModel(), kernel.dvs,
                      ClockGating::Perfect);
    crt.attachMeter(&cmeter);

    std::printf("complex (EQ 4 speculation):\n");
    for (int t = 0; t < tasks; ++t) {
        TaskStats ts = crt.runTask();
        if (t < 5 || t == tasks - 1 || ts.missedCheckpoint) {
            std::printf("  task %2d: f_spec=%4u f_rec=%4u done=%6.1fus"
                        " %s%s\n",
                        t, ts.fSpec, ts.fRec,
                        ts.completionSeconds * 1e6,
                        ts.deadlineMet ? "met" : "MISSED-DEADLINE",
                        ts.missedCheckpoint ? " [checkpoint miss]" : "");
        }
    }

    // --- the explicitly-safe simple-fixed processor ---
    Rig srig(wl.program);
    SimpleCpu &simple = srig.build<SimpleCpu>();
    SimpleFixedRuntime srt(simple, wl.program, srig.mem(), kernel.wcet,
                           kernel.dvs, cfg);
    PowerMeter smeter(simple, simpleFixedEnergyModel(), kernel.dvs,
                      ClockGating::Perfect);
    srt.attachMeter(&smeter);

    std::printf("\nsimple-fixed (EQ 2 when beneficial):\n");
    for (int t = 0; t < tasks; ++t) {
        TaskStats ts = srt.runTask();
        if (t < 5 || t == tasks - 1) {
            std::printf("  task %2d: f=%4u (%s) done=%6.1fus %s\n", t,
                        ts.fSpec,
                        ts.speculating ? "speculating" : "static",
                        ts.completionSeconds * 1e6,
                        ts.deadlineMet ? "met" : "MISSED-DEADLINE");
        }
    }

    // Where the complex processor's energy goes (Wattch-style
    // breakdown across all epochs).
    std::printf("\ncomplex energy breakdown:\n");
    std::printf("  %-12s %8.1f%%\n", "clock",
                100.0 * cmeter.clockEnergyJoules() /
                    cmeter.totalEnergyJoules());
    for (int u = 0; u < numUnits; ++u) {
        double j = cmeter.unitEnergyJoules(static_cast<Unit>(u));
        if (j / cmeter.totalEnergyJoules() > 0.001) {
            std::printf("  %-12s %8.1f%%\n",
                        unitName(static_cast<Unit>(u)),
                        100.0 * j / cmeter.totalEnergyJoules());
        }
    }

    double pc = cmeter.averagePowerWatts();
    double ps = smeter.averagePowerWatts();
    std::printf("\naverage power: complex %.3f W, simple-fixed %.3f W "
                "-> %.1f%% savings\n",
                pc, ps, 100.0 * (1.0 - pc / ps));
    std::printf("deadline misses: complex %d, simple-fixed %d "
                "(safety requires 0)\n",
                crt.stats().deadlineMisses, srt.stats().deadlineMisses);
    return crt.stats().deadlineMisses + srt.stats().deadlineMisses == 0
               ? 0
               : 1;
}
