/**
 * @file
 * Tests of the experiment set-up (core/experiment.hh): the bisected
 * minimum deadline sits on the EQ 4 feasibility boundary for every
 * kernel, the process-wide cache hands concurrent callers one object,
 * and the analysis types cannot be copied or moved away from the
 * program their analyzer refers to.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "core/experiment.hh"
#include "sim/parallel.hh"
#include "tests/test_util.hh"

namespace visa
{
namespace
{

template <typename T>
constexpr bool pinned = !std::is_copy_constructible_v<T> &&
                        !std::is_move_constructible_v<T> &&
                        !std::is_copy_assignable_v<T> &&
                        !std::is_move_assignable_v<T>;
static_assert(pinned<KernelAnalysis>,
              "the analyzer refers to wl.program: the analysis must stay "
              "where it was built");
static_assert(pinned<ExperimentSetup>);

TEST(Experiment, MinDeadlineIsTheEq4FeasibilityBoundary)
{
    const RuntimeConfig cfg = experimentRuntimeConfig();
    for (const std::string &name : allWorkloadNames()) {
        const ExperimentSetup &s = cachedSetup(name);
        PetEstimator pets(s.wcet.numSubtasks(), cfg.petPolicy);
        pets.seed(profileComplexAets(s.wl.program, s.wl.numSubtasks));
        auto feasible = [&](double deadline) {
            return solveVisaSpeculation(s.wcet, pets, s.dvs, deadline,
                                        cfg.ovhdSeconds,
                                        cfg.overheadCyclesAtFspec())
                .feasible;
        };
        EXPECT_TRUE(feasible(s.minDeadline)) << name;
        EXPECT_FALSE(feasible(s.minDeadline * (1 - 1e-9))) << name;
        EXPECT_GE(s.tightDeadline, 1.05 * s.minDeadline) << name;
        EXPECT_GE(s.looseDeadline, 1.25 * s.tightDeadline) << name;
    }
}

TEST(Experiment, CachedSetupIsOneObjectForConcurrentCallers)
{
    test::ScopedThreads four("4");
    std::vector<const ExperimentSetup *> got(8);
    parallelFor(got.size(),
                [&](std::size_t i) { got[i] = &cachedSetup("fir"); });
    for (const ExperimentSetup *s : got)
        EXPECT_EQ(s, got[0]);
    EXPECT_EQ(&cachedSetup("fir"), got[0]);
}

} // anonymous namespace
} // namespace visa
