/**
 * @file
 * The heart of the VISA safety argument, step by step: a task running
 * on the unsafe complex pipeline misses a checkpoint (we flush the
 * caches and predictors to force it, the Figure 4 mechanism), the
 * watchdog raises the missed-checkpoint exception, the pipeline
 * drains into simple mode at the recovery frequency — and the deadline
 * is still met.
 *
 *   $ ./examples/fallback_demo [benchmark]      (default: cnt)
 */

#include <cstdio>
#include <string>

#include "core/experiment.hh"
#include "cpu/rig.hh"

using namespace visa;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "mm";
    const KernelAnalysis kernel(name);
    const Workload &wl = kernel.wl;

    RuntimeConfig cfg;
    // Lean deployment parameters, not the experiments' scaled ones: a
    // fast regulator and a measured (rather than padded) drain bound
    // leave the checkpoints razor sharp, so the induced disturbance
    // visibly trips the watchdog.
    cfg.ovhdSeconds = 1e-6;
    cfg.dvsSoftwareCycles = 100;
    cfg.drainBudgetCycles = 128;

    // The tightest EQ 4-guaranteeable deadline, plus only 0.2% slack:
    // any disturbance must now trip a checkpoint.
    const double min_d = minGuaranteeableDeadline(
        kernel.wcet, kernel.dvs,
        profileComplexAets(wl.program, wl.numSubtasks), cfg);
    cfg.deadlineSeconds = min_d * 1.002;

    std::printf("== missed-checkpoint fallback on '%s' ==\n", name.c_str());
    std::printf("deadline: %.2f us (0.2%% above the tightest "
                "guaranteeable)\n\n", cfg.deadlineSeconds * 1e6);

    Rig rig(wl.program);
    OooCpu &cpu = rig.build<OooCpu>();
    VisaComplexRuntime rt(cpu, wl.program, rig.mem(), kernel.wcet,
                          kernel.dvs, cfg);
    rt.pets().seed(profileComplexAets(wl.program, wl.numSubtasks, 1.02));

    for (int t = 0; t < 16; ++t) {
        // Flush after the first PET re-evaluation so the schedule has
        // converged to its tight steady state.
        bool induce = t == 13;
        if (induce)
            std::printf("--- task 13: flushing caches and predictors "
                        "(induced disturbance) ---\n");
        TaskStats ts = rt.runTask(induce);
        std::printf("task %d: f_spec=%u f_rec=%u  completed %.2f us "
                    "(deadline %.2f us) -> %s\n",
                    t, ts.fSpec, ts.fRec, ts.completionSeconds * 1e6,
                    cfg.deadlineSeconds * 1e6,
                    ts.deadlineMet ? "met" : "MISSED");
        if (ts.missedCheckpoint) {
            std::printf("        watchdog fired in sub-task %d; "
                        "pipeline drained, reconfigured to simple mode"
                        " at %u MHz; remainder bounded by the VISA "
                        "WCET\n",
                        ts.missedSubtask, ts.fRec);
        }
        if (ts.checksum != wl.expectedChecksum)
            std::printf("        CHECKSUM MISMATCH\n");
    }

    std::printf("\ncheckpoint misses: %d, deadline misses: %d "
                "(the VISA guarantee: the second number is 0)\n",
                rt.stats().checkpointMisses,
                rt.stats().deadlineMisses);
    return rt.stats().deadlineMisses == 0 ? 0 : 1;
}
