/**
 * @file
 * The static timing-analysis toolset of paper Figure 1, end to end:
 * control-flow construction, loop bounds, caching categorizations
 * (Table 2), and frequency-parameterized WCET — for any of the six
 * C-lab benchmarks.
 *
 *   $ ./examples/wcet_analysis [benchmark]     (default: fft)
 */

#include <cstdio>
#include <map>
#include <string>

#include "cpu/rig.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

using namespace visa;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "fft";
    Workload wl = makeWorkload(name);
    std::printf("== static WCET analysis of '%s' ==\n\n", name.c_str());
    std::printf("program: %zu instructions, %d sub-tasks, %zu loop "
                "bounds annotated\n",
                wl.program.size(), wl.numSubtasks,
                wl.program.loopBounds.size());

    WcetAnalyzer analyzer(wl.program);
    const Cfg &cfg = analyzer.mainCfg();
    std::printf("CFG: %zu basic blocks, %zu natural loops\n",
                cfg.blocks().size(), cfg.loops().size());
    for (const auto &loop : cfg.loops()) {
        std::printf("  loop @0x%x: %zu blocks, bound %llu, %s\n",
                    cfg.block(loop.header).startPc, loop.blocks.size(),
                    static_cast<unsigned long long>(loop.bound),
                    loop.parent >= 0 ? "nested" : "top-level");
    }

    // Caching categorizations (Table 2).
    std::map<CacheCat, int> counts;
    for (const auto &bb : cfg.blocks())
        for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4)
            ++counts[analyzer.mainCache().at(pc).cat];
    std::printf("\nI-cache categorizations (Table 2):\n");
    for (auto cat : {CacheCat::AlwaysHit, CacheCat::AlwaysMiss,
                     CacheCat::FirstMiss, CacheCat::FirstHit}) {
        std::printf("  %-2s : %d\n", cacheCatName(cat), counts[cat]);
    }

    // Trace-based D-cache padding (the paper's interim method, §3.3).
    DMissProfile dmiss = profileDataMisses(wl.program);
    std::printf("\nD-cache trace padding (misses per sub-task):");
    for (auto m : dmiss.missesPerSubtask)
        std::printf(" %llu", static_cast<unsigned long long>(m));
    std::printf("\n");

    // WCET across the DVS range; validate against the simulator.
    std::printf("\n%8s %14s %12s %12s %8s\n", "f(MHz)", "WCET(cycles)",
                "WCET(us)", "actual(us)", "ratio");
    for (MHz f : {100u, 250u, 500u, 750u, 1000u}) {
        WcetReport rep = analyzer.analyze(f, &dmiss);
        Rig rig(wl.program);
        SimpleCpu &cpu = rig.build<SimpleCpu>(std::nullopt, false, f);
        cpu.run();
        double actual_us =
            static_cast<double>(cpu.cycles()) / (f);
        std::printf("%8u %14llu %12.2f %12.2f %8.3f %s\n", f,
                    static_cast<unsigned long long>(rep.taskCycles),
                    rep.taskMicros(), actual_us,
                    static_cast<double>(rep.taskCycles) /
                        static_cast<double>(cpu.cycles()),
                    rep.taskCycles >= cpu.cycles() ? "(safe)"
                                                   : "(VIOLATION)");
    }

    // Per-sub-task decomposition at 1 GHz.
    WcetReport rep = analyzer.analyze(1000, &dmiss);
    std::printf("\nper-sub-task WCET @ 1 GHz (cycles):");
    for (Cycles c : rep.subtaskCycles)
        std::printf(" %llu", static_cast<unsigned long long>(c));
    std::printf("\n");
    return 0;
}
