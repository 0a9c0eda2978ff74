#include "core/experiment.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "cpu/rig.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace visa
{

namespace
{

/**
 * Deadline derivation (paper §5.3): the tight deadline is the
 * tightest guaranteeable (it drives simple-fixed to the 800-900 MHz
 * range); the loose deadline targets ~600 MHz for simple-fixed. We
 * realize both as the simple-fixed WCET at those operating points.
 */
constexpr MHz tightDeadlineFreq = 850;
constexpr MHz looseDeadlineFreq = 600;

/**
 * Complex/simple cycle ratio of one cold run of @p prog on each
 * pipeline. The two rigs are independent machines sharing only the
 * immutable Program, so they run as concurrent arms.
 */
double
measureModeRatio(const Program &prog)
{
    Cycles cycles[2] = {};    // simple, complex
    parallelFor(2, [&](std::size_t arm) {
        Rig rig(prog);
        if (arm == 0)
            rig.build<SimpleCpu>();
        else
            rig.build<OooCpu>();
        rig.cpu().run(20'000'000'000ULL);
        cycles[arm] = rig.cpu().cycles();
    });
    return static_cast<double>(cycles[1]) / static_cast<double>(cycles[0]);
}

} // anonymous namespace

RuntimeConfig
experimentRuntimeConfig(double deadline)
{
    RuntimeConfig cfg;
    cfg.deadlineSeconds = deadline;
    cfg.ovhdSeconds = experimentOvhdSeconds;
    // The DVS software and the drain budget scale with the ~20x input
    // shrink like the switch overhead does (EXPERIMENTS.md).
    cfg.dvsSoftwareCycles = 500;
    cfg.drainBudgetCycles = 512;
    return cfg;
}

double
minGuaranteeableDeadline(const WcetTable &wcet, const DvsTable &dvs,
                         const std::vector<std::uint64_t> &pet_seed,
                         const RuntimeConfig &cfg)
{
    PetEstimator pets(wcet.numSubtasks(), cfg.petPolicy);
    pets.seed(pet_seed);
    double lo = wcet.taskSeconds(dvs.maxFreq());
    double hi = wcet.taskSeconds(dvs.minFreq());
    for (int it = 0; it < 48; ++it) {
        double mid = 0.5 * (lo + hi);
        bool ok = solveVisaSpeculation(wcet, pets, dvs, mid,
                                       cfg.ovhdSeconds,
                                       cfg.overheadCyclesAtFspec())
                      .feasible;
        (ok ? hi : lo) = mid;
    }
    return hi;
}

KernelAnalysis::KernelAnalysis(const std::string &name)
    : wl(makeWorkload(name)), analyzer(wl.program),
      dmiss(profileDataMisses(wl.program)), wcet(analyzer, dvs, &dmiss)
{
}

ExperimentSetup::ExperimentSetup(const std::string &name)
    : KernelAnalysis(name), modeRatio(measureModeRatio(wl.program)),
      minDeadline(minGuaranteeableDeadline(
          wcet, dvs, profileComplexAets(wl.program, wl.numSubtasks),
          experimentRuntimeConfig())),
      tightDeadline(std::max(wcet.taskSeconds(tightDeadlineFreq),
                             1.05 * minDeadline)),
      looseDeadline(std::max(wcet.taskSeconds(looseDeadlineFreq),
                             1.25 * tightDeadline))
{
}

RuntimeConfig
ExperimentSetup::runtimeConfig(double deadline) const
{
    RuntimeConfig cfg = experimentRuntimeConfig(deadline);
    cfg.simpleModeAetScale = std::min(1.0, 1.15 * modeRatio);
    return cfg;
}

const ExperimentSetup &
cachedSetup(const std::string &name)
{
    struct Entry
    {
        std::once_flag once;
        std::unique_ptr<ExperimentSetup> setup;
    };
    static std::mutex map_mutex;
    static std::map<std::string, Entry> entries;

    Entry *e;
    {
        std::lock_guard<std::mutex> lock(map_mutex);
        e = &entries[name];    // node-based: stable across inserts
    }
    std::call_once(e->once, [&] {
        e->setup = std::make_unique<ExperimentSetup>(name);
    });
    return *e->setup;
}

std::vector<SchedTaskDef>
makeTaskSetDefs(const std::vector<TaskSetMemberSpec> &members,
                double util_target, double budget_stretch)
{
    if (members.empty())
        fatal("task set has no members");
    if (util_target <= 0.0)
        fatal("task-set utilization target must be positive");
    const double n = static_cast<double>(members.size());
    std::vector<SchedTaskDef> defs;
    for (const TaskSetMemberSpec &m : members) {
        const ExperimentSetup &s = cachedSetup(m.workload);
        SchedTaskDef d;
        d.name = m.workload;
        d.program = &s.wl.program;
        d.wcet = &s.wcet;
        d.dvs = &s.dvs;
        const double budget = budget_stretch * s.tightDeadline;
        d.runtime = s.runtimeConfig(budget);
        d.periodSeconds = n * budget * m.periodScale / util_target;
        d.expectedChecksum = s.wl.expectedChecksum;
        defs.push_back(std::move(d));
    }
    return defs;
}

} // namespace visa
