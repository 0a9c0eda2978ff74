/**
 * @file
 * visa-bench set-up: every program a workload runs is analysed the
 * paper's way (§5.3) — WCET analysis with D-miss padding, per-frequency
 * WCET tables, calibration runs, and tight/loose deadlines. This is a
 * frozen copy of the derivation in bench/bench_util.hh: the deadlines,
 * budgets and periods it produces are the benchmark's inputs, so they
 * must not move when that harness changes. Each step runs under its
 * own setup.* span.
 */

#ifndef VISA_BENCH_SETUP_HH
#define VISA_BENCH_SETUP_HH

#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "core/scheduler.hh"
#include "core/wcet_table.hh"
#include "power/dvs.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"
#include "workloads/tasksets.hh"

namespace visa::vbench
{

/** Cycle budget for running one task instance to completion. */
inline constexpr Cycles runawayCycles = 20'000'000'000ULL;

/** One analysed program. Heap-only: the analyzer refers to wl. */
struct Analysed
{
    Workload wl;
    std::unique_ptr<WcetAnalyzer> analyzer;
    DMissProfile dmiss;
    DvsTable dvs;
    std::unique_ptr<WcetTable> wcet;
    double tightDeadline = 0.0;
    double looseDeadline = 0.0;
    /** Tightest deadline EQ 4 can guarantee with profiled PETs. */
    double minDeadline = 0.0;
    /** Measured complex/simple cycle ratio (simple-mode AET scale). */
    double modeRatio = 0.28;
    /** Cycles of the simple-fixed calibration run at f_max. */
    Cycles simpleCycles = 0;

    RuntimeConfig runtimeConfig(double deadline) const;
};

/** Assemble C-lab kernel @p name under a setup.assemble span. */
Workload assembleKernel(const std::string &name);

/** Analyse @p wl (spans setup.wcet, .dmiss, .calibrate, .deadline_search). */
std::unique_ptr<Analysed> analyse(Workload wl);

/**
 * Scheduler task definitions for @p members, analysed in the same
 * order: budget B_i = 1.25 x tight deadline, period
 * T_i = n * B_i * periodScale_i / util. Phases are left at 0.
 */
std::vector<SchedTaskDef>
taskSetDefs(const std::vector<TaskSetMemberSpec> &members,
            const std::vector<std::unique_ptr<Analysed>> &analysed,
            double util);

} // namespace visa::vbench

#endif // VISA_BENCH_SETUP_HH
