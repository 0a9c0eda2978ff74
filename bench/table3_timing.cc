/**
 * @file
 * Reproduces paper Table 3: per benchmark, the dynamic instruction
 * count, the number of sub-tasks, the derived tight/loose deadlines,
 * the analyzer's WCET at 1 GHz, the measured execution times of the
 * simple-fixed and complex processors at 1 GHz, and the WCET/simple
 * and simple/complex ratios.
 *
 * Expected shape (paper values): WCET/simple close to 1 for the
 * regular kernels, largest for srt (2.0 in the paper — early exit and
 * data-dependent swaps); simple/complex around 3-6x.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "cpu/rig.hh"
#include "sim/parallel.hh"

using namespace visa;

namespace
{

/** Compute one benchmark's row; returns the formatted line. */
std::string
row(const std::string &name)
{
    const ExperimentSetup &setup = cachedSetup(name);
    const Program &prog = setup.wl.program;

    Rig simple_rig(prog);
    SimpleCpu &simple = simple_rig.build<SimpleCpu>();
    simple.run(20'000'000'000ULL);
    Rig complex_rig(prog);
    OooCpu &ooo = complex_rig.build<OooCpu>();
    ooo.run(20'000'000'000ULL);

    const double wcet_us =
        static_cast<double>(setup.wcet.taskCycles(1000)) / 1000.0;
    const double simple_us = static_cast<double>(simple.cycles()) / 1000.0;
    const double complex_us =
        static_cast<double>(ooo.cycles()) / 1000.0;

    char line[192];
    std::snprintf(line, sizeof(line),
                  "%-7s %10llu %5d %11.1f %11.1f %10.1f %10.1f "
                  "%10.1f %8.2f %8.2f\n",
                  name.c_str(),
                  static_cast<unsigned long long>(simple.retired()),
                  setup.wl.numSubtasks, setup.tightDeadline * 1e6,
                  setup.looseDeadline * 1e6, wcet_us, simple_us,
                  complex_us, wcet_us / simple_us,
                  simple_us / complex_us);
    return line;
}

/** Run all @p names as concurrent arms; print rows in input order. */
void
printRows(const std::vector<std::string> &names)
{
    std::vector<std::string> rows(names.size());
    parallelFor(names.size(),
                [&](std::size_t i) { rows[i] = row(names[i]); });
    for (const auto &r : rows)
        std::fputs(r.c_str(), stdout);
}

} // anonymous namespace

int
main()
{
    std::printf("Table 3: C-lab benchmarks (times at 1 GHz)\n");
    std::printf("%-7s %10s %5s %11s %11s %10s %10s %10s %8s %8s\n",
                "bench", "dyn.inst", "#sub", "tight(us)", "loose(us)",
                "WCET(us)", "simple(us)", "complex(us)", "W/simp",
                "simp/cplx");

    printRows(clabNames());
    std::printf("\npaper shape: WCET/simple in [1.0, 1.4] except srt "
                "~2.0; simple/complex in [3.1, 5.8]\n");
    std::printf("\nextended suite (not in the paper's Table 3):\n");
    printRows(extendedNames());
    return 0;
}
