/**
 * @file
 * The paper's experiment set-up (§5.3), in one place: the scaled
 * switch overhead and recovery budgets, the analysis of a named C-lab
 * kernel, and the deadlines derived from it. The figure harnesses
 * (bench/), the tools, the examples and the tests all build their
 * runtimes from here.
 *
 *   const ExperimentSetup &s = cachedSetup("mm");
 *   RuntimeConfig cfg = s.runtimeConfig(s.tightDeadline);
 *
 * A caller that needs only the WCET table constructs a KernelAnalysis
 * and runs no calibration rig.
 */

#ifndef VISA_CORE_EXPERIMENT_HH
#define VISA_CORE_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "core/scheduler.hh"
#include "core/wcet_table.hh"
#include "power/dvs.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"
#include "workloads/tasksets.hh"

namespace visa
{

/**
 * The experiments' mode/frequency switch overhead: benchmark inputs
 * are ~20x smaller than the paper's (EXPERIMENTS.md), so the paper's
 * 20 us switch overhead scales to 2 us to keep its share of the
 * deadline comparable.
 */
inline constexpr double experimentOvhdSeconds = 2e-6;

/**
 * The experiments' runtime for @p deadline: the scaled switch
 * overhead, DVS-software cost and drain budget; every other field
 * keeps its default.
 */
RuntimeConfig experimentRuntimeConfig(double deadline = 0.0);

/**
 * The tightest deadline EQ 4 can guarantee with PETs seeded from
 * @p pet_seed (48 bisection steps over the feasibility predicate),
 * mirroring the paper's "tightest that can be guaranteed with
 * frequency speculation". Reads @p cfg's overheads and PET policy.
 */
double minGuaranteeableDeadline(const WcetTable &wcet, const DvsTable &dvs,
                                const std::vector<std::uint64_t> &pet_seed,
                                const RuntimeConfig &cfg);

/**
 * The analysis of one named kernel: its workload, the analyzer, the
 * D-miss profile, the baseline 37-point DVS table and the WCET table
 * over it. Neither copyable nor movable: the analyzer keeps a
 * reference to wl.program.
 */
struct KernelAnalysis
{
    explicit KernelAnalysis(const std::string &name);
    KernelAnalysis(const KernelAnalysis &) = delete;
    KernelAnalysis &operator=(const KernelAnalysis &) = delete;

    Workload wl;
    WcetAnalyzer analyzer;
    DMissProfile dmiss;
    DvsTable dvs;
    WcetTable wcet;
};

/**
 * A kernel analysed and calibrated for the experiments: the measured
 * mode ratio and the §5.3 deadlines.
 */
struct ExperimentSetup : KernelAnalysis
{
    explicit ExperimentSetup(const std::string &name);

    /**
     * Measured complex/simple cycle ratio: the per-benchmark factor
     * §4.3 prescribes for mapping simple-mode AETs back to the
     * complex-mode domain ("based on the relative performance of the
     * complex and simple modes").
     */
    const double modeRatio;
    /** Minimum EQ 4-guaranteeable deadline (Fig. 4 stress runs). */
    const double minDeadline;
    /** max(simple-fixed WCET at 850 MHz, 1.05 x minDeadline). */
    const double tightDeadline;
    /** max(simple-fixed WCET at 600 MHz, 1.25 x tightDeadline). */
    const double looseDeadline;

    /**
     * experimentRuntimeConfig(deadline) with the simple-mode AET scale
     * set to 1.15 x the mode ratio (at most 1): the margin keeps scaled
     * PETs from underestimating.
     */
    RuntimeConfig runtimeConfig(double deadline) const;
};

/**
 * Process-wide cache of set-ups, so the campaign binaries analyse each
 * kernel once no matter how many experiments reuse it. Thread-safe:
 * distinct kernels build in parallel, a shared one builds exactly once
 * while the others wait.
 */
const ExperimentSetup &cachedSetup(const std::string &name);

/**
 * Build scheduler task definitions for @p members, deriving each
 * task's execution-time budget and period from its analyzed WCETs:
 *
 *  - budget B_i = budget_stretch * tightDeadline_i, so every task is
 *    comfortably single-task feasible (EQ 4) within its budget;
 *  - period T_i = n * B_i * periodScale_i / util_target, so the set's
 *    utilization sums to util_target when all period scales are 1
 *    (larger scales lower that member's share below target).
 *
 * The referenced programs/WCET tables/DVS tables live in the
 * process-wide cachedSetup() entries, which outlive any scheduler.
 */
std::vector<SchedTaskDef>
makeTaskSetDefs(const std::vector<TaskSetMemberSpec> &members,
                double util_target, double budget_stretch = 1.25);

} // namespace visa

#endif // VISA_CORE_EXPERIMENT_HH
