#include "setup.hh"

#include <algorithm>

#include "core/freq_spec.hh"
#include "core/pet.hh"
#include "sim/builder.hh"
#include "spans.hh"

namespace visa::vbench
{

namespace
{

/** Tight deadlines drive simple-fixed to ~850 MHz, loose to ~600. */
constexpr MHz tightDeadlineFreq = 850;
constexpr MHz looseDeadlineFreq = 600;
/** The 20 us switch overhead scaled with the ~20x input shrink. */
constexpr double experimentOvhdSeconds = 2e-6;

/** Cycles of one full run of @p prog on a fresh rig at f_max. */
Cycles
calibrationCycles(const Program &prog, CpuKind kind)
{
    auto sim = SimBuilder().program(prog).cpu(kind).build();
    sim->cpu().run(runawayCycles);
    return sim->cpu().cycles();
}

/** Bisect the EQ 4 feasibility predicate for the tightest deadline. */
double
minGuaranteeableDeadline(const WcetTable &wcet, const DvsTable &dvs,
                         const std::vector<std::uint64_t> &pet_seed,
                         const RuntimeConfig &cfg)
{
    PetEstimator pets(wcet.numSubtasks(), cfg.petPolicy);
    pets.seed(pet_seed);
    const Cycles extra = cfg.dvsSoftwareCycles + cfg.drainBudgetCycles;
    double lo = wcet.taskSeconds(dvs.maxFreq());
    double hi = wcet.taskSeconds(dvs.minFreq());
    for (int it = 0; it < 48; ++it) {
        const double mid = 0.5 * (lo + hi);
        const bool ok = solveVisaSpeculation(wcet, pets, dvs, mid,
                                             cfg.ovhdSeconds, extra)
                            .feasible;
        (ok ? hi : lo) = mid;
    }
    return hi;
}

} // namespace

RuntimeConfig
Analysed::runtimeConfig(double deadline) const
{
    RuntimeConfig cfg;
    cfg.deadlineSeconds = deadline;
    cfg.ovhdSeconds = experimentOvhdSeconds;
    cfg.dvsSoftwareCycles = 500;
    cfg.drainBudgetCycles = 512;
    cfg.simpleModeAetScale = std::min(1.0, 1.15 * modeRatio);
    return cfg;
}

Workload
assembleKernel(const std::string &name)
{
    SpanScope span("setup.assemble");
    return makeWorkload(name);
}

std::unique_ptr<Analysed>
analyse(Workload wl)
{
    auto a = std::make_unique<Analysed>();
    a->wl = std::move(wl);
    const Program &prog = a->wl.program;
    {
        SpanScope span("setup.wcet");
        a->analyzer = std::make_unique<WcetAnalyzer>(prog);
    }
    {
        SpanScope span("setup.dmiss");
        a->dmiss = profileDataMisses(prog);
    }
    {
        SpanScope span("setup.wcet");
        a->wcet = std::make_unique<WcetTable>(*a->analyzer, a->dvs,
                                              &a->dmiss);
    }
    std::vector<std::uint64_t> pets;
    {
        // Rigs reset to f_max (1000 MHz), the frequency the
        // wcet_overestimate metric compares the bound at.
        SpanScope span("setup.calibrate");
        a->simpleCycles = calibrationCycles(prog, CpuKind::Simple);
        const Cycles complex_cycles =
            calibrationCycles(prog, CpuKind::Complex);
        a->modeRatio = static_cast<double>(complex_cycles) /
                       static_cast<double>(a->simpleCycles);
        pets = profileComplexAets(prog, a->wl.numSubtasks);
    }
    {
        SpanScope span("setup.deadline_search");
        a->minDeadline = minGuaranteeableDeadline(
            *a->wcet, a->dvs, pets, a->runtimeConfig(1.0));
    }
    // Tight: the tightest guaranteeable with speculation (5% margin),
    // but no tighter than the simple-fixed WCET at 850 MHz. Loose: the
    // ~600 MHz basis (paper §5.3).
    a->tightDeadline = std::max(a->wcet->taskSeconds(tightDeadlineFreq),
                                1.05 * a->minDeadline);
    a->looseDeadline = std::max(a->wcet->taskSeconds(looseDeadlineFreq),
                                1.25 * a->tightDeadline);
    return a;
}

std::vector<SchedTaskDef>
taskSetDefs(const std::vector<TaskSetMemberSpec> &members,
            const std::vector<std::unique_ptr<Analysed>> &analysed,
            double util)
{
    constexpr double budgetStretch = 1.25;
    const double n = static_cast<double>(members.size());
    std::vector<SchedTaskDef> defs;
    for (std::size_t i = 0; i < members.size(); ++i) {
        const Analysed &a = *analysed.at(i);
        SchedTaskDef d;
        d.name = members[i].workload;
        d.program = &a.wl.program;
        d.wcet = a.wcet.get();
        d.dvs = &a.dvs;
        const double budget = budgetStretch * a.tightDeadline;
        d.runtime = a.runtimeConfig(budget);
        d.periodSeconds = n * budget * members[i].periodScale / util;
        d.expectedChecksum = a.wl.expectedChecksum;
        defs.push_back(std::move(d));
    }
    return defs;
}

} // namespace visa::vbench
