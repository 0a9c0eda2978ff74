/**
 * @file
 * Conventional concurrency (paper §1.1): the complex processor's
 * earlier completions leave slack in every period, and a background
 * non-real-time task runs in it — safely, because the hard task's
 * deadlines are still protected by the VISA checkpoints. Compares the
 * background throughput unlocked by the complex processor against the
 * explicitly-safe one.
 *
 *   $ ./examples/concurrency [benchmark] [periods]   (default: fft 25)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/concurrency.hh"
#include "core/experiment.hh"
#include "cpu/rig.hh"
#include "isa/assembler.hh"

using namespace visa;

namespace
{

// The background task: a compression-ish byte scan over a buffer.
const char *backgroundSource = R"(
        la   r4, bgbuf
        addi r5, r0, 256
        addi r6, r0, 0
bg:     lbu  r7, 0(r4)
        xor  r6, r6, r7
        sll  r6, r6, 1
        addi r4, r4, 1
        subi r5, r5, 1
        .loopbound 256
        bgtz r5, bg
        halt
        .data
bgbuf:  .space 256
)";

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "fft";
    int periods = argc > 2 ? std::atoi(argv[2]) : 25;

    const KernelAnalysis kernel(name);
    const Workload &wl = kernel.wl;
    Program bg = assemble(backgroundSource);

    RuntimeConfig cfg;
    cfg.deadlineSeconds = kernel.wcet.taskSeconds(700);
    cfg.ovhdSeconds = experimentOvhdSeconds;
    std::printf("== conventional concurrency on '%s': period %.1f us, "
                "%d periods ==\n\n",
                name.c_str(), cfg.deadlineSeconds * 1e6, periods);

    auto run = [&](bool use_complex) {
        Rig rig(wl.program);
        BackgroundStats bgstats;
        int dl_misses = 0;
        if (use_complex) {
            VisaComplexRuntime rt(rig.build<OooCpu>(), wl.program,
                                  rig.mem(), kernel.wcet, kernel.dvs, cfg);
            rt.pets().seed(profileComplexAets(wl.program,
                                              wl.numSubtasks));
            SlackScheduler sched(rt, bg, kernel.dvs);
            for (int p = 0; p < periods; ++p)
                sched.runPeriod();
            bgstats = sched.background();
            dl_misses = rt.stats().deadlineMisses;
        } else {
            SimpleFixedRuntime rt(rig.build<SimpleCpu>(), wl.program,
                                  rig.mem(), kernel.wcet, kernel.dvs, cfg);
            SlackScheduler sched(rt, bg, kernel.dvs);
            for (int p = 0; p < periods; ++p)
                sched.runPeriod();
            bgstats = sched.background();
            dl_misses = rt.stats().deadlineMisses;
        }
        std::printf("%-13s slack %8.1f us | background: %8llu insts, "
                    "%4d completions | hard deadline misses: %d\n",
                    use_complex ? "complex:" : "simple-fixed:",
                    bgstats.slackSeconds * 1e6,
                    static_cast<unsigned long long>(
                        bgstats.instructionsRetired),
                    bgstats.completions, dl_misses);
        return bgstats.instructionsRetired;
    };

    auto c = run(true);
    auto s = run(false);
    std::printf("\nbackground throughput unlocked by the VISA-compliant"
                " complex processor: %.2fx\n",
                s ? static_cast<double>(c) / static_cast<double>(s)
                  : 0.0);
    return 0;
}
