/**
 * @file
 * Unit tests for the VISA core framework: WCET tables, checkpoint
 * arithmetic (EQ 1), frequency-speculation solvers (EQ 2/EQ 4), PET
 * estimation (last-N and histogram), and schedulability utilities.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/checkpoints.hh"
#include "core/freq_spec.hh"
#include "core/pet.hh"
#include "core/schedulability.hh"
#include "core/wcet_table.hh"
#include "isa/assembler.hh"
#include "sim/logging.hh"
#include "wcet/analyzer.hh"

namespace visa
{
namespace
{

/** A three-sub-task toy program shared by the core tests. */
const char *coreProgram = R"(
        .subtask 1
        addi r4, r0, 500
a:      subi r4, r4, 1
        .loopbound 500
        bgtz r4, a
        .subtask 2
        addi r5, r0, 1000
b:      mul r6, r5, r5
        subi r5, r5, 1
        .loopbound 1000
        bgtz r5, b
        .subtask 3
        addi r7, r0, 300
c:      subi r7, r7, 1
        .loopbound 300
        bgtz r7, c
        halt
)";

class CoreFixture : public ::testing::Test
{
  protected:
    CoreFixture()
        : prog_(assemble(coreProgram)), analyzer_(prog_),
          wcet_(analyzer_, dvs_)
    {
    }

    Program prog_;
    WcetAnalyzer analyzer_;
    DvsTable dvs_;
    WcetTable wcet_;
};

// ---- DVS table ----

TEST(DvsTableTest, ThirtySevenXscalePoints)
{
    DvsTable dvs;
    ASSERT_EQ(dvs.settings().size(), 37u);
    EXPECT_EQ(dvs.minFreq(), 100u);
    EXPECT_EQ(dvs.maxFreq(), 1000u);
    EXPECT_DOUBLE_EQ(dvs.voltsAt(100), 0.70);
    EXPECT_DOUBLE_EQ(dvs.voltsAt(1000), 1.80);
    // ~0.03 V per 25 MHz step (paper §5.2).
    EXPECT_NEAR(dvs.voltsAt(125) - dvs.voltsAt(100), 0.0306, 1e-3);
}

TEST(DvsTableTest, CeilSettingAndMembership)
{
    DvsTable dvs;
    EXPECT_EQ(dvs.ceilSetting(101).freq, 125u);
    EXPECT_EQ(dvs.ceilSetting(1000).freq, 1000u);
    EXPECT_TRUE(dvs.isSetting(475));
    EXPECT_FALSE(dvs.isSetting(480));
    EXPECT_THROW(dvs.voltsAt(480), FatalError);
    EXPECT_THROW(dvs.ceilSetting(2000), FatalError);
}

TEST(DvsTableTest, FrequencyAdvantageMultiplier)
{
    DvsTable dvs15(1.5);
    EXPECT_EQ(dvs15.minFreq(), 150u);
    EXPECT_EQ(dvs15.maxFreq(), 1500u);
    // Same voltage ladder: 1.5x frequency at equal volts (Fig. 3).
    EXPECT_DOUBLE_EQ(dvs15.voltsAt(150), 0.70);
    EXPECT_DOUBLE_EQ(dvs15.voltsAt(1500), 1.80);
}

// ---- WCET table ----

TEST_F(CoreFixture, WcetTableCoversEverySetting)
{
    EXPECT_EQ(wcet_.numSubtasks(), 3);
    for (const auto &s : dvs_.settings()) {
        EXPECT_GT(wcet_.taskCycles(s.freq), 0u);
        Cycles sum = 0;
        for (int k = 0; k < 3; ++k)
            sum += wcet_.subtaskCycles(k, s.freq);
        EXPECT_EQ(sum, wcet_.taskCycles(s.freq));
    }
    EXPECT_THROW(wcet_.taskCycles(999), FatalError);
}

TEST_F(CoreFixture, WcetTimeMonotoneInFrequency)
{
    // Higher frequency -> shorter wall-clock WCET (more stall cycles,
    // but each cycle is shorter).
    double prev = 1e9;
    for (const auto &s : dvs_.settings()) {
        double t = wcet_.taskSeconds(s.freq);
        EXPECT_LT(t, prev);
        prev = t;
    }
}

TEST_F(CoreFixture, RemainingSecondsSuffixSums)
{
    double whole = wcet_.remainingSeconds(0, 500);
    EXPECT_NEAR(whole, wcet_.taskSeconds(500), 1e-12);
    EXPECT_NEAR(wcet_.remainingSeconds(2, 500),
                wcet_.subtaskSeconds(2, 500), 1e-12);
    EXPECT_LT(wcet_.remainingSeconds(1, 500), whole);
}

TEST_F(CoreFixture, RemainingSecondsRejectsBadIndex)
{
    // k = S is EQ 2's empty tail; anything outside [0, S] is a caller
    // bug, not a zero-length remainder.
    EXPECT_EQ(wcet_.remainingSeconds(3, 500), 0.0);
    for (int k : {-1, 4}) {
        try {
            wcet_.remainingSeconds(k, 500);
            ADD_FAILURE() << "k = " << k << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(std::to_string(k)),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(wcet_.remainingSeconds(0, 999), FatalError);
}

// ---- Checkpoints (EQ 1) ----

TEST_F(CoreFixture, CheckpointsFollowEquationOne)
{
    const double D = wcet_.taskSeconds(500) * 1.5;
    const double ovhd = 2e-7;
    CheckpointPlan plan = computeCheckpoints(wcet_, 500, 300, D, ovhd);
    ASSERT_EQ(plan.checkpoints.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(plan.checkpoints[static_cast<std::size_t>(i)],
                    D - ovhd - wcet_.remainingSeconds(i, 500), 1e-12);
    }
    // Monotone increasing.
    EXPECT_LT(plan.checkpoints[0], plan.checkpoints[1]);
    EXPECT_LT(plan.checkpoints[1], plan.checkpoints[2]);
}

TEST_F(CoreFixture, WatchdogIncrementsMatchCheckpointDeltas)
{
    const double D = wcet_.taskSeconds(500) * 1.5;
    CheckpointPlan plan = computeCheckpoints(wcet_, 500, 300, D, 2e-7);
    // increments[0] ~ cp1 * f; increments[i] ~ (cp_i+1 - cp_i) * f.
    EXPECT_EQ(plan.increments[0],
              static_cast<std::int64_t>(
                  std::floor(plan.checkpoints[0] * 300e6)));
    for (int i = 1; i < 3; ++i) {
        double delta = plan.checkpoints[static_cast<std::size_t>(i)] -
                       plan.checkpoints[static_cast<std::size_t>(i - 1)];
        EXPECT_EQ(plan.increments[static_cast<std::size_t>(i)],
                  static_cast<std::int64_t>(std::floor(delta * 300e6)));
    }
}

TEST_F(CoreFixture, ArmDelayShrinksFirstIncrementOnly)
{
    const double D = wcet_.taskSeconds(500) * 1.5;
    CheckpointPlan base = computeCheckpoints(wcet_, 500, 300, D, 2e-7);
    CheckpointPlan delayed =
        computeCheckpoints(wcet_, 500, 300, D, 2e-7, 1000);
    EXPECT_EQ(delayed.increments[0], base.increments[0] - 1000);
    EXPECT_EQ(delayed.increments[1], base.increments[1]);
}

TEST_F(CoreFixture, InfeasibleCheckpointRejected)
{
    // Deadline below the recovery-frequency WCET: checkpoint 1 < 0.
    double D = wcet_.taskSeconds(500) * 0.5;
    EXPECT_THROW(computeCheckpoints(wcet_, 500, 300, D, 2e-7),
                 FatalError);
}

// ---- Frequency speculation ----

TEST_F(CoreFixture, StaticFrequencyIsLowestSufficient)
{
    double D = wcet_.taskSeconds(475);
    MHz f = solveStaticFrequency(wcet_, dvs_, D);
    EXPECT_EQ(f, 475u);
    EXPECT_EQ(solveStaticFrequency(wcet_, dvs_, D * 0.01), 0u);
    EXPECT_EQ(solveStaticFrequency(wcet_, dvs_, 1.0), 100u);
}

TEST_F(CoreFixture, VisaSpeculationLowersFrequencyWithTightPets)
{
    PetEstimator pets(3, PetPolicy{});
    // Tight PETs: complex finishes each sub-task in a quarter of its
    // WCET cycles.
    std::vector<std::uint64_t> seed;
    for (int k = 0; k < 3; ++k)
        seed.push_back(wcet_.subtaskCycles(k, 1000) / 4);
    pets.seed(seed);

    double D = wcet_.taskSeconds(700);
    MHz fstatic = solveStaticFrequency(wcet_, dvs_, D);
    FreqPair pair = solveVisaSpeculation(wcet_, pets, dvs_, D, 2e-7);
    ASSERT_TRUE(pair.feasible);
    EXPECT_LT(pair.fSpec, fstatic);
    EXPECT_GE(pair.fRec, pair.fSpec);

    // EQ 4 must hold at the returned pair for every i.
    double pet_prefix = 0.0;
    for (int i = 0; i < 3; ++i) {
        pet_prefix += pets.petSeconds(i, pair.fSpec);
        EXPECT_LE(pet_prefix + 2e-7 +
                      wcet_.remainingSeconds(i, pair.fRec),
                  D + 1e-12);
    }
}

TEST_F(CoreFixture, SpeculationInfeasibleBelowMinimum)
{
    PetEstimator pets(3, PetPolicy{});
    std::vector<std::uint64_t> seed;
    for (int k = 0; k < 3; ++k)
        seed.push_back(wcet_.subtaskCycles(k, 1000));
    pets.seed(seed);
    FreqPair pair = solveVisaSpeculation(wcet_, pets, dvs_,
                                         wcet_.taskSeconds(1000) * 0.2,
                                         2e-7);
    EXPECT_FALSE(pair.feasible);
}

TEST_F(CoreFixture, OverheadCyclesRaiseTheSpeculativeFrequency)
{
    PetEstimator pets(3, PetPolicy{});
    std::vector<std::uint64_t> seed;
    for (int k = 0; k < 3; ++k)
        seed.push_back(wcet_.subtaskCycles(k, 1000) / 4);
    pets.seed(seed);
    double D = wcet_.taskSeconds(700);
    FreqPair cheap = solveVisaSpeculation(wcet_, pets, dvs_, D, 2e-7, 0);
    FreqPair costly =
        solveVisaSpeculation(wcet_, pets, dvs_, D, 2e-7, 2000);
    ASSERT_TRUE(cheap.feasible);
    ASSERT_TRUE(costly.feasible);
    EXPECT_GT(costly.fSpec, cheap.fSpec);
}

TEST_F(CoreFixture, ConventionalNeedsWcetHeadroomPerSubtask)
{
    PetEstimator pets(3, PetPolicy{});
    std::vector<std::uint64_t> seed;
    for (int k = 0; k < 3; ++k)
        seed.push_back(wcet_.subtaskCycles(k, 1000) / 4);
    pets.seed(seed);
    double D = wcet_.taskSeconds(700);
    FreqPair conv =
        solveConventionalSpeculation(wcet_, pets, dvs_, D, 2e-7);
    FreqPair vis = solveVisaSpeculation(wcet_, pets, dvs_, D, 2e-7);
    ASSERT_TRUE(conv.feasible);
    ASSERT_TRUE(vis.feasible);
    // EQ 2 charges WCET_i at f_spec for the mispredicted sub-task, so
    // it can never speculate lower than EQ 4.
    EXPECT_GE(conv.fSpec, vis.fSpec);
}

// ---- PET estimation ----

TEST(PetTest, LastNTakesWindowMaximum)
{
    PetEstimator pets(1, PetPolicy{PetPolicy::LastN, 5, 0.0, 64});
    for (std::uint64_t v : {100u, 300u, 200u})
        pets.record(0, v);
    pets.reevaluate();
    EXPECT_EQ(pets.petCycles(0), 300u);
    // Window slides: six larger-then-smaller samples push 300 out.
    for (std::uint64_t v : {50u, 60u, 70u, 80u, 90u})
        pets.record(0, v);
    pets.reevaluate();
    EXPECT_EQ(pets.petCycles(0), 90u);
}

TEST(PetTest, HistogramTargetsMissRate)
{
    PetPolicy pol;
    pol.kind = PetPolicy::Histogram;
    pol.window = 10;
    pol.bucketCycles = 1;
    pol.targetMissRate = 0.0;
    PetEstimator zero(1, pol);
    pol.targetMissRate = 0.2;
    PetEstimator twenty(1, pol);
    for (std::uint64_t v = 1; v <= 10; ++v) {
        zero.record(0, v * 100);
        twenty.record(0, v * 100);
    }
    zero.reevaluate();
    twenty.reevaluate();
    // 0% target covers the maximum; 20% may leave the top two samples
    // above the PET.
    EXPECT_EQ(zero.petCycles(0), 1000u);
    EXPECT_EQ(twenty.petCycles(0), 800u);
}

TEST(PetTest, UnrecordedSubtaskKeepsSeed)
{
    PetEstimator pets(2, PetPolicy{});
    pets.seed({111, 222});
    pets.record(0, 50);
    pets.reevaluate();
    EXPECT_EQ(pets.petCycles(0), 50u);
    EXPECT_EQ(pets.petCycles(1), 222u);
}

TEST(PetTest, InvalidConfigsRejected)
{
    EXPECT_THROW(PetEstimator(0, PetPolicy{}), FatalError);
    PetPolicy bad;
    bad.window = 0;
    EXPECT_THROW(PetEstimator(1, bad), FatalError);
    PetEstimator p(2, PetPolicy{});
    EXPECT_THROW(p.seed({1}), FatalError);
}

// ---- Schedulability ----

TEST(SchedulabilityTest, LiuLaylandBound)
{
    EXPECT_DOUBLE_EQ(rmUtilizationBound(1), 1.0);
    EXPECT_NEAR(rmUtilizationBound(2), 0.8284, 1e-3);
    EXPECT_NEAR(rmUtilizationBound(3), 0.7798, 1e-3);
}

TEST(SchedulabilityTest, RmBoundTest)
{
    std::vector<PeriodicTask> ok = {{1.0, 4.0}, {1.0, 5.0}, {1.0, 10.0}};
    EXPECT_TRUE(rmSchedulableByBound(ok));
    std::vector<PeriodicTask> heavy = {{2.0, 4.0}, {2.0, 5.0}};
    EXPECT_FALSE(rmSchedulableByBound(heavy));    // U = 0.9 > 0.828
}

TEST(SchedulabilityTest, ResponseTimeAnalysisBeatsTheBound)
{
    // Harmonic periods: schedulable up to U = 1 even though the
    // utilization bound fails.
    std::vector<PeriodicTask> harmonic = {{2.0, 4.0}, {4.0, 8.0}};
    EXPECT_FALSE(rmSchedulableByBound(harmonic));    // U = 1.0
    EXPECT_TRUE(rmResponseTimeFeasible(harmonic));
    std::vector<PeriodicTask> infeasible = {{2.0, 4.0}, {5.0, 8.0}};
    EXPECT_FALSE(rmResponseTimeFeasible(infeasible));
}

TEST(SchedulabilityTest, EdfUtilizationTest)
{
    std::vector<PeriodicTask> full = {{2.0, 4.0}, {4.0, 8.0}};
    EXPECT_TRUE(edfSchedulable(full));
    std::vector<PeriodicTask> over = {{3.0, 4.0}, {3.0, 8.0}};
    EXPECT_FALSE(edfSchedulable(over));
    EXPECT_THROW(utilization({{1.0, 0.0}}), FatalError);
}

} // anonymous namespace
} // namespace visa
