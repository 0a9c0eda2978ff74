/**
 * @file
 * Frequency-speculation output pins: the 9 C-lab kernels and 24
 * instrumented generated programs (all four progen profiles, seeds
 * 1-6), each with its D-miss padded WCET table, folded into one FNV-1a
 * digest of everything EQ 1, EQ 2 and EQ 4 answer with:
 *
 *  - the bit patterns of every WcetTable seconds view (subtaskSeconds,
 *    remainingSeconds for k in [0, S], taskSeconds) at all 37 DVS
 *    operating points;
 *  - the FreqPair of every solver (EQ 4 with and without the fixed
 *    f_spec overhead, restart-extended EQ 4 with and without a restore
 *    cost, EQ 2, and the static frequency) at 200 deadlines spanning
 *    every answer from infeasible to the lowest setting, plus the 48
 *    midpoints set-up's deadline bisection visits;
 *  - the EQ 1 checkpoint plan of every feasible pair, or the text of
 *    the FatalError it raises.
 *
 * The solvers are tuned for speed (set-up bisects EQ 4 48 times per
 * analysed program); these pins make any drift in a chosen pair or a
 * checkpoint visible as a named row. On a deliberate change, the
 * failure message prints the new digest to paste below.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/checkpoints.hh"
#include "core/freq_spec.hh"
#include "core/runtime.hh"
#include "core/wcet_table.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "verify/progen.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

using test::Fnv1a;
using verify::GenProfile;

/** Set-up's EQ 4 terms: the 2 us switch overhead and the DVS software
 *  plus drain budget charged at f_spec (visa-bench's runtimeConfig). */
constexpr double ovhdSeconds = 2e-6;
constexpr Cycles setupExtraCycles = 500 + 512;
constexpr Cycles armDelayCycles = 500;

void
bits(Fnv1a &h, double v)
{
    h.u64(std::bit_cast<std::uint64_t>(v));
}

/** Fold the EQ 1 plan of @p pair at @p deadline, or its error text. */
void
foldPlan(Fnv1a &h, const WcetTable &wcet, const FreqPair &pair,
         double deadline)
{
    h.integer(pair.feasible);
    h.integer(pair.fSpec);
    h.integer(pair.fRec);
    if (!pair.feasible)
        return;
    try {
        const CheckpointPlan plan = computeCheckpoints(
            wcet, pair.fRec, pair.fSpec, deadline, ovhdSeconds,
            armDelayCycles);
        for (double cp : plan.checkpoints)
            bits(h, cp);
        for (std::int64_t inc : plan.increments)
            h.integer(inc);
    } catch (const FatalError &e) {
        h.text(e.what());
    }
}

/** Fold every solver's answer at @p deadline. */
void
foldSolvers(Fnv1a &h, const WcetTable &wcet, const PetEstimator &pets,
            const DvsTable &dvs, double deadline)
{
    bits(h, deadline);
    for (Cycles extra : {Cycles{0}, setupExtraCycles})
        foldPlan(h, wcet,
                 solveVisaSpeculation(wcet, pets, dvs, deadline,
                                      ovhdSeconds, extra),
                 deadline);
    for (Cycles restore : {Cycles{0}, Cycles{20000}})
        foldPlan(h, wcet,
                 solveRestartSpeculation(wcet, pets, dvs, deadline,
                                         ovhdSeconds, setupExtraCycles,
                                         restore),
                 deadline);
    foldPlan(h, wcet,
             solveConventionalSpeculation(wcet, pets, dvs, deadline,
                                          ovhdSeconds, setupExtraCycles),
             deadline);
    h.integer(solveStaticFrequency(wcet, dvs, deadline));
}

/** True if some remainingSeconds(k, f) rises from one setting to the
 *  next higher one: the reason no solver may assume monotonicity. */
bool
remainingRisesWithFrequency(const WcetTable &wcet, const DvsTable &dvs)
{
    const auto &settings = dvs.settings();
    for (int k = 0; k < wcet.numSubtasks(); ++k)
        for (std::size_t j = 1; j < settings.size(); ++j)
            if (wcet.remainingSeconds(k, settings[j].freq) >
                wcet.remainingSeconds(k, settings[j - 1].freq))
                return true;
    return false;
}

struct Pinned
{
    std::uint64_t digest = 0;
    bool rising = false;
};

Pinned
digestOf(const Program &prog, int num_subtasks)
{
    const WcetAnalyzer an(prog);
    const DMissProfile dmiss = profileDataMisses(prog);
    const DvsTable dvs;
    const WcetTable wcet(an, dvs, &dmiss);
    PetEstimator pets(num_subtasks, PetPolicy{});
    pets.seed(profileComplexAets(prog, num_subtasks));

    Fnv1a h;
    const int s = wcet.numSubtasks();
    h.integer(s);
    for (const DvsSetting &st : dvs.settings()) {
        h.integer(st.freq);
        for (int k = 0; k < s; ++k)
            bits(h, wcet.subtaskSeconds(k, st.freq));
        for (int k = 0; k <= s; ++k)
            bits(h, wcet.remainingSeconds(k, st.freq));
        bits(h, wcet.taskSeconds(st.freq));
    }

    // 200 deadlines from well below the fastest whole-task WCET to well
    // above the slowest: infeasible, speculative and static answers.
    const double lo = 0.5 * wcet.taskSeconds(dvs.maxFreq());
    const double hi = 1.5 * wcet.taskSeconds(dvs.minFreq());
    for (int j = 0; j < 200; ++j)
        foldSolvers(h, wcet, pets, dvs, lo + (hi - lo) * j / 199.0);

    // Set-up's bisection for the tightest guaranteeable deadline.
    double blo = wcet.taskSeconds(dvs.maxFreq());
    double bhi = wcet.taskSeconds(dvs.minFreq());
    for (int it = 0; it < 48; ++it) {
        const double mid = 0.5 * (blo + bhi);
        foldSolvers(h, wcet, pets, dvs, mid);
        const bool ok = solveVisaSpeculation(wcet, pets, dvs, mid,
                                             ovhdSeconds, setupExtraCycles)
                            .feasible;
        (ok ? bhi : blo) = mid;
    }
    bits(h, bhi);
    return {h.value(), remainingRisesWithFrequency(wcet, dvs)};
}

struct KernelRow
{
    const char *name;
    std::uint64_t want;
};

const KernelRow kernelRows[] = {
    {"adpcm", 0x660d46491ac18455ULL},
    {"cnt", 0xfa6efb1931a61b78ULL},
    {"crc", 0x1594e01fa3acec96ULL},
    {"fft", 0xf382f882b41c0c51ULL},
    {"fir", 0xed9e701ddafe47beULL},
    {"jfdctint", 0xd192151a530fef3aULL},
    {"lms", 0x2a2ff9146a9c4593ULL},
    {"mm", 0x1f6713981805b007ULL},
    {"srt", 0xe69a3cc6a094a35aULL},
};

TEST(FreqSpecPin, ClabKernels)
{
    for (const KernelRow &row : kernelRows) {
        const Workload wl = makeWorkload(row.name);
        const std::uint64_t have =
            digestOf(wl.program, wl.numSubtasks).digest;
        EXPECT_EQ(have, row.want)
            << row.name << ": new digest 0x" << std::hex << have << "ULL";
    }
}

/** One instrumented generated program (calls off, two sub-tasks: the
 *  shape the timing oracle and visa-bench's fuzz_verify analyse). */
struct ProgenRow
{
    GenProfile profile;
    std::uint64_t seed;
    std::uint64_t want;
};

const ProgenRow progenRows[] = {
    {GenProfile::Alu, 1, 0x55b7c2a656fbdf0eULL},
    {GenProfile::Alu, 2, 0x86b6523f60d2beULL},
    {GenProfile::Alu, 3, 0x33f94aea8b0eebd4ULL},
    {GenProfile::Alu, 4, 0xb9fa8a75a12d834aULL},
    {GenProfile::Alu, 5, 0xb315920e5953f42dULL},
    {GenProfile::Alu, 6, 0x51345f699bab14bfULL},
    {GenProfile::Branch, 1, 0x9ea7af3b189f407cULL},
    {GenProfile::Branch, 2, 0xc9305c2614677d75ULL},
    {GenProfile::Branch, 3, 0xdb53269c733b9f62ULL},
    {GenProfile::Branch, 4, 0xb88ca5eea3112892ULL},
    {GenProfile::Branch, 5, 0x97667ca26de44369ULL},
    {GenProfile::Branch, 6, 0x5d351d3efb8d4cbULL},
    {GenProfile::Memory, 1, 0xb0200e34c6aeb96fULL},
    {GenProfile::Memory, 2, 0xff3b5645869b84ddULL},
    {GenProfile::Memory, 3, 0x46696e4acf152d14ULL},
    {GenProfile::Memory, 4, 0x2b5d85c28b1bd6cdULL},
    {GenProfile::Memory, 5, 0xb2aa125b9b4f6f96ULL},
    {GenProfile::Memory, 6, 0x8be8c2acc7e5a299ULL},
    {GenProfile::Mixed, 1, 0x60431d5cf072bccbULL},
    {GenProfile::Mixed, 2, 0x599e82d234e41810ULL},
    {GenProfile::Mixed, 3, 0x2b9ffaa22aa0206bULL},
    {GenProfile::Mixed, 4, 0xc24b148178ea4fafULL},
    {GenProfile::Mixed, 5, 0x63e0412e4eb96acdULL},
    {GenProfile::Mixed, 6, 0x9c324a5d759d7106ULL},
};

TEST(FreqSpecPin, GeneratedPrograms)
{
    int rising = 0;
    for (const ProgenRow &row : progenRows) {
        verify::GenParams params;
        params.profile = row.profile;
        params.instrument = true;
        params.allowCalls = false;
        const Pinned have = digestOf(
            verify::generate(row.seed, params).program, params.subtasks);
        rising += have.rising;
        EXPECT_EQ(have.digest, row.want)
            << verify::profileName(row.profile) << "/" << row.seed
            << ": new digest 0x" << std::hex << have.digest << "ULL";
    }
    // The pins must cover tables whose remaining time rises with f,
    // or a monotone shortcut in a solver could pass them.
    EXPECT_GT(rising, 0);
}

} // anonymous namespace
} // namespace visa
