/**
 * @file
 * WCET analyzer output pins: the 9 C-lab kernels and a fixed set of
 * generated programs (all four progen profiles, bare and instrumented,
 * with calls on and off), each folded into one FNV-1a digest of
 * everything the analyzer answers with: every sub-task bound at all 37
 * DVS operating points, with and without the dynamic-trace D-miss pad,
 * and every attribute() charge at 100 and 1000 MHz.
 *
 * The analyzer's frequency-dependent evaluator is tuned for speed
 * (every WcetTable calls it 37 times); these pins make any drift in a
 * bound visible as a named row rather than a scatter of downstream
 * checkpoint, deadline and energy changes. On a deliberate change of a
 * bound, the failure message prints the new digest to paste below.
 */

#include <gtest/gtest.h>

#include <string>

#include "power/dvs.hh"
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

/** Fold every bound and charge the analyzer gives for @p prog. */
std::uint64_t
digestOf(const Program &prog)
{
    Fnv1a h;
    const WcetAnalyzer an(prog);
    const DMissProfile dmiss = profileDataMisses(prog);
    h.integer(an.numSubtasks());
    const DvsTable dvs;
    const DMissProfile *pads[] = {nullptr, &dmiss};
    for (const DvsSetting &s : dvs.settings()) {
        for (const DMissProfile *pad : pads) {
            const WcetReport rep = an.analyze(s.freq, pad);
            h.integer(s.freq);
            for (Cycles c : rep.subtaskCycles)
                h.integer(static_cast<std::int64_t>(c));
            h.integer(static_cast<std::int64_t>(rep.taskCycles));
        }
    }
    for (MHz f : {100u, 1000u}) {
        const WcetAttribution att = an.attribute(f, &dmiss);
        const WcetReport rep = an.analyze(f, &dmiss);
        for (std::size_t k = 0; k < att.subtaskCharges.size(); ++k) {
            Cycles sum = 0;
            for (const WcetCharge &c : att.subtaskCharges[k]) {
                h.integer(static_cast<int>(c.kind));
                h.integer(c.startPc);
                h.integer(c.endPc);
                h.integer(static_cast<std::int64_t>(c.count));
                h.integer(static_cast<std::int64_t>(c.cycles));
                sum += c.cycles;
            }
            h.text("|");
            EXPECT_EQ(sum, rep.subtaskCycles[k])
                << "charges must sum to the bound at " << f << " MHz";
        }
    }
    return h.value();
}

void
expectPinned(const std::string &name, const Program &prog,
             std::uint64_t want)
{
    const std::uint64_t have = digestOf(prog);
    EXPECT_EQ(have, want) << name << ": new digest 0x" << std::hex << have
                          << "ULL";
}

struct KernelRow
{
    const char *name;
    std::uint64_t want;
};

const KernelRow kernelRows[] = {
    {"adpcm", 0x5311527b38530580ULL},
    {"cnt", 0x6110e7b93d768ba4ULL},
    {"crc", 0xb528bb2058d6b7b5ULL},
    {"fft", 0x641d3e4707a02e8aULL},
    {"fir", 0xf3c4231fcf886c69ULL},
    {"jfdctint", 0x26bab632e68f3fd0ULL},
    {"lms", 0xf4bd1ae82374b783ULL},
    {"mm", 0xc5c6941693d4b9b2ULL},
    {"srt", 0xfd8d7ba03b9f2132ULL},
};

TEST(WcetPin, ClabKernels)
{
    for (const KernelRow &row : kernelRows)
        expectPinned(row.name, makeWorkload(row.name).program, row.want);
}

/** One generated program: its progen inputs and its pinned digest. */
struct ProgenRow
{
    GenProfile profile;
    std::uint64_t seed;
    bool instrument;
    bool calls;
    std::uint64_t want;
};

std::string
rowName(const ProgenRow &row)
{
    return std::string(verify::profileName(row.profile)) + "/" +
           std::to_string(row.seed) +
           (row.instrument ? "/instrumented" : "/bare") +
           (row.calls ? "/calls" : "/nocalls");
}

// Three seeds per {profile, instrumented, calls} cell. Rows marked
// "cap" have a scope with more paths than the enumeration cap: their
// bound is the sum of that scope's drained members.
const ProgenRow progenRows[] = {
    {GenProfile::Alu, 1, false, false, 0x5d7be6c381e75ed1ULL},
    {GenProfile::Alu, 2, false, false, 0x83ed5c7ad4d88abdULL},
    {GenProfile::Alu, 3, false, false, 0x6e79f976567ee0d5ULL},
    {GenProfile::Alu, 4, false, true, 0x59497d2a8eac5e2dULL},
    {GenProfile::Alu, 5, false, true, 0x307835df250b7b79ULL},
    {GenProfile::Alu, 6, false, true, 0xb3bbf0a92a9763dULL},
    {GenProfile::Alu, 7, true, false, 0x453ca5af12ba3581ULL},
    {GenProfile::Alu, 8, true, false, 0xb939517bc4382ab2ULL},
    {GenProfile::Alu, 9, true, false, 0x58bd64844d60f8e3ULL},
    {GenProfile::Alu, 10, true, true, 0x373584c893b44ae7ULL},
    {GenProfile::Alu, 11, true, true, 0x318caaf08e996698ULL},
    {GenProfile::Alu, 12, true, true, 0x84b3419fdeabb539ULL},
    {GenProfile::Branch, 1, false, false, 0xf0f1ca5a0b9e6ca9ULL},    // cap
    {GenProfile::Branch, 2, false, false, 0xeca98261c70ceb6dULL},
    {GenProfile::Branch, 3, false, false, 0xeb84bd28cb32cadfULL},    // cap
    {GenProfile::Branch, 4, false, true, 0xec85272b4888b255ULL},
    {GenProfile::Branch, 5, false, true, 0x40f1ea2f78670dd3ULL},
    {GenProfile::Branch, 6, false, true, 0xf4d5644d9689fd45ULL},
    {GenProfile::Branch, 7, true, false, 0x16c78fa311db4f38ULL},
    {GenProfile::Branch, 8, true, false, 0x10d377f3bc6a2fc7ULL},
    {GenProfile::Branch, 9, true, false, 0xed058c3180f7becULL},
    {GenProfile::Branch, 10, true, true, 0xf28c72bd0617d79aULL},
    {GenProfile::Branch, 11, true, true, 0x1c3a9c84c1979310ULL},
    {GenProfile::Branch, 12, true, true, 0xf1b6616937dab0dbULL},
    {GenProfile::Memory, 1, false, false, 0x53f151d5cd8c9709ULL},
    {GenProfile::Memory, 2, false, false, 0x73a484d8cf9c51e3ULL},
    {GenProfile::Memory, 3, false, false, 0x8e5120384b61d8b9ULL},
    {GenProfile::Memory, 4, false, true, 0x7616202f51a19efbULL},
    {GenProfile::Memory, 5, false, true, 0xa151f58e6382a773ULL},
    {GenProfile::Memory, 6, false, true, 0x68b0a4fc4d5abaebULL},
    {GenProfile::Memory, 7, true, false, 0xbef47a76e6634a2bULL},
    {GenProfile::Memory, 8, true, false, 0x28fe534a0450f844ULL},
    {GenProfile::Memory, 9, true, false, 0x8345450ae4d78aa9ULL},
    {GenProfile::Memory, 10, true, true, 0x305b20a081ed9b61ULL},
    {GenProfile::Memory, 11, true, true, 0x7c3d86afcc67c7baULL},
    {GenProfile::Memory, 12, true, true, 0x20c5a63013bfb4d0ULL},
    {GenProfile::Mixed, 1, false, false, 0x4befa4ef2af09c8fULL},
    {GenProfile::Mixed, 2, false, false, 0x3bae9b99245ff851ULL},
    {GenProfile::Mixed, 3, false, false, 0x834bcc848c961d41ULL},
    {GenProfile::Mixed, 4, false, true, 0xfa9f411ca0b3165ULL},
    {GenProfile::Mixed, 5, false, true, 0x95b2d2b1174be543ULL},
    {GenProfile::Mixed, 6, false, true, 0x2e87bb86ce9dcb4dULL},
    {GenProfile::Mixed, 7, true, false, 0xd91084e5d2d1ac62ULL},
    {GenProfile::Mixed, 8, true, false, 0x5ff39d3ff13da28dULL},
    {GenProfile::Mixed, 9, true, false, 0xea85a2521c74209ULL},
    {GenProfile::Mixed, 10, true, true, 0x50da190f11a645cULL},
    {GenProfile::Mixed, 11, true, true, 0x50c84d6f2be3f2f0ULL},
    {GenProfile::Mixed, 12, true, true, 0xe01abc47d382c410ULL},
};

TEST(WcetPin, GeneratedPrograms)
{
    for (const ProgenRow &row : progenRows) {
        verify::GenParams params;
        params.profile = row.profile;
        params.instrument = row.instrument;
        params.allowCalls = row.calls;
        expectPinned(rowName(row),
                     verify::generate(row.seed, params).program, row.want);
    }
}

} // anonymous namespace
} // namespace visa
