/**
 * @file
 * Reproduces paper Figure 2: power savings of the VISA-compliant
 * complex processor relative to the explicitly-safe simple-fixed
 * processor, for tight (T) and loose (L) deadlines, with perfect
 * clock gating and with 10% standby power.
 *
 * Expected shape: 43-61% savings for tight deadlines without standby
 * power (paper), higher with standby power; smaller but substantial
 * (22-48%) for loose deadlines. Simple-fixed runs in the 800-900 MHz
 * range (tight) vs 150-325 MHz for the complex processor.
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
    std::printf("Figure 2: power savings of VISA-compliant complex vs "
                "simple-fixed (%d tasks per arm)\n\n", tasks);
    std::printf("%-7s %4s %9s %9s %8s %9s %9s %8s %7s %7s\n",
                "bench", "dl", "Psimp(W)", "Pcplx(W)", "save%",
                "Psimp10", "Pcplx10", "save10%", "fsimp", "fcplx");

    // Each benchmark is an independent arm group (private rigs, shared
    // immutable setup): run them on the pool, print in input order.
    const std::vector<std::string> names = clabNames();
    std::vector<std::string> rows(names.size());
    std::vector<int> violations(names.size(), 0);
    parallelFor(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        const ExperimentSetup &setup = cachedSetup(name);
        struct DlCase
        {
            const char *tag;
            double deadline;
        } cases[] = {{"T", setup.tightDeadline},
                     {"L", setup.looseDeadline}};
        for (const auto &c : cases) {
            ArmResult sp = runSimpleFixedArm(setup, c.deadline,
                                             ClockGating::Perfect, tasks,
                                             setup.dvs, setup.wcet);
            ArmResult cp = runComplexArm(setup, c.deadline,
                                         ClockGating::Perfect, tasks);
            ArmResult ss = runSimpleFixedArm(setup, c.deadline,
                                             ClockGating::Standby10,
                                             tasks, setup.dvs,
                                             setup.wcet);
            ArmResult cs = runComplexArm(setup, c.deadline,
                                         ClockGating::Standby10, tasks);
            violations[i] += sp.deadlineMisses + cp.deadlineMisses +
                             ss.deadlineMisses + cs.deadlineMisses +
                             sp.badChecksums + cp.badChecksums;
            char line[160];
            std::snprintf(line, sizeof(line),
                          "%-7s %4s %9.3f %9.3f %7.1f%% %9.3f %9.3f "
                          "%7.1f%% %7u %7u\n",
                          name.c_str(), c.tag, sp.avgPowerW, cp.avgPowerW,
                          savingsPercent(cp.avgPowerW, sp.avgPowerW),
                          ss.avgPowerW, cs.avgPowerW,
                          savingsPercent(cs.avgPowerW, ss.avgPowerW),
                          sp.lastFSpec, cp.lastFSpec);
            rows[i] += line;
        }
    });

    int safety_violations = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fputs(rows[i].c_str(), stdout);
        safety_violations += violations[i];
    }
    std::printf("\ndeadline misses + checksum failures across all arms:"
                " %d (must be 0)\n", safety_violations);
    std::printf("paper shape: tight 43-61%% savings (no standby), loose "
                "22-48%%; savings higher with 10%% standby\n");
    return safety_violations == 0 ? 0 : 1;
}
