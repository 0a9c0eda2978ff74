/**
 * @file
 * Reproduces paper Figure 4: power savings of the VISA-compliant
 * complex processor when 10%, 20%, and ~33% of the tasks are forced
 * to miss checkpoints (caches and predictors flushed at task start),
 * tight deadlines.
 *
 * Expected shape: savings decline roughly in proportion to the
 * misprediction rate (mispredicted tasks execute almost entirely in
 * simple mode at the recovery frequency), and — the paper's core
 * safety claim — every deadline is still met.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/power_arm.hh"
#include "sim/parallel.hh"

using namespace visa;
using namespace visa::bench;

int
main()
{
    const int tasks = taskCount();
    std::printf("Figure 4: power savings with induced mispredicted "
                "tasks (%d tasks per arm)\n", tasks);
    std::printf("(run at the minimum guaranteeable deadline: with the "
                "papers' near-zero residual slack,\n flushed tasks "
                "miss checkpoints and recover in simple mode; see "
                "EXPERIMENTS.md)\n\n");
    std::printf("%-7s %8s %8s %8s %8s %10s\n", "bench", "0%", "10%",
                "20%", "33%", "ckpt-miss");

    const std::vector<std::string> names = clabNames();
    std::vector<std::string> rows(names.size());
    std::vector<int> violations(names.size(), 0);
    parallelFor(names.size(), [&](std::size_t bi) {
        const std::string &name = names[bi];
        const ExperimentSetup &setup = cachedSetup(name);
        const double d = 1.02 * setup.minDeadline;
        ArmResult simple = runSimpleFixedArm(setup, d,
                                             ClockGating::Perfect,
                                             tasks, setup.dvs,
                                             setup.wcet);
        violations[bi] += simple.deadlineMisses + simple.badChecksums;

        double saves[4];
        int misses[4];
        const int induce[4] = {0, 10, 5, 3};
        for (int i = 0; i < 4; ++i) {
            ArmResult c = runComplexArm(setup, d, ClockGating::Perfect,
                                        tasks, induce[i]);
            saves[i] = savingsPercent(c.avgPowerW, simple.avgPowerW);
            misses[i] = c.checkpointMisses;
            violations[bi] += c.deadlineMisses + c.badChecksums;
        }
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-7s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %4d/%d/%d\n",
                      name.c_str(), saves[0], saves[1], saves[2],
                      saves[3], misses[1], misses[2], misses[3]);
        rows[bi] = line;
    });

    int safety_violations = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fputs(rows[i].c_str(), stdout);
        safety_violations += violations[i];
    }
    std::printf("\ndeadline misses + checksum failures across all arms:"
                " %d (must be 0: mispredictions are safe by design)\n",
                safety_violations);
    std::printf("paper shape: decline proportional to the misprediction"
                " rate; all deadlines met\n");
    return safety_violations == 0 ? 0 : 1;
}
