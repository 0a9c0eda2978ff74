/**
 * @file
 * Ablation of the WCET analyzer's design choices (DESIGN.md §6):
 * Healy-style inter-iteration pipeline overlap vs the sound-but-loose
 * drain-per-iteration fallback, and the per-iteration slack knob.
 * Reports WCET/actual tightness ratios at 1 GHz for every benchmark.
 *
 * Expected shape: overlap composition is what keeps the bounds near
 * the paper's 1.0-1.16 band for regular kernels; drain composition
 * inflates tight loops substantially while remaining sound.
 */

#include <cstdio>

#include "cpu/rig.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

using namespace visa;

namespace
{

double
ratioFor(const Workload &wl, const AnalyzerParams &params,
         const DMissProfile &dmiss, Cycles actual)
{
    WcetAnalyzer an(wl.program, params);
    WcetReport rep = an.analyze(1000, &dmiss);
    return static_cast<double>(rep.taskCycles) /
           static_cast<double>(actual);
}

} // anonymous namespace

int
main()
{
    std::printf("Analyzer ablation: WCET / actual (simple-fixed, "
                "1 GHz, cold)\n\n");
    std::printf("%-9s %10s %10s %10s %12s\n", "bench", "overlap",
                "drain", "slack=2", "sound(all)");
    bool sound = true;
    for (const auto &name : allWorkloadNames()) {
        Workload wl = makeWorkload(name);
        DMissProfile dmiss = profileDataMisses(wl.program);
        Rig rig(wl.program);
        SimpleCpu &cpu = rig.build<SimpleCpu>();
        cpu.run(20'000'000'000ULL);
        Cycles actual = cpu.cycles();

        AnalyzerParams overlap;    // default composition
        AnalyzerParams drain;
        drain.maxOverlapPaths = 0;    // force T_iter = T_first
        AnalyzerParams slack;
        slack.iterSlack = 2;

        double r_overlap = ratioFor(wl, overlap, dmiss, actual);
        double r_drain = ratioFor(wl, drain, dmiss, actual);
        double r_slack = ratioFor(wl, slack, dmiss, actual);
        bool all_sound =
            r_overlap >= 1.0 && r_drain >= 1.0 && r_slack >= 1.0;
        sound = sound && all_sound;
        std::printf("%-9s %10.3f %10.3f %10.3f %12s\n", name.c_str(),
                    r_overlap, r_drain, r_slack,
                    all_sound ? "yes" : "VIOLATION");
    }
    std::printf("\nexpected shape: overlap ~1.0-1.2 (srt ~2), drain "
                "markedly looser, slack slightly above overlap; every "
                "column >= 1.0\n");
    return sound ? 0 : 1;
}
