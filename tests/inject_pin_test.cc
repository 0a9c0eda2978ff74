/**
 * @file
 * Fault-injection output pins: runInjectProgram() for seeds 1-40 of
 * every fault class, each class folded into one FNV-1a digest of every
 * field the run returns: the outcome, the fault record, detection
 * latency, lockstep length, the deadline economics at full precision,
 * restarts, both checksums, the block join, the paired vote, the
 * generated source and the report text. A second digest per class
 * repeats the runs with the paired-core vote on, pinning the vote's
 * two private machines as well.
 *
 * The injected runs exercise the complex core's corners (wakeup
 * stalls, corrupted loads and stores, watchdog drains and restarts);
 * these pins make any drift in how the core, the runtime or the
 * classification treat a fault visible as a named class rather than a
 * shifted campaign percentage. On a deliberate change, the failure
 * message prints the new digest to paste below.
 */

#include <gtest/gtest.h>

#include <bit>
#include <iterator>

#include "tests/test_util.hh"
#include "verify/inject.hh"

namespace visa
{
namespace
{

using test::Fnv1a;
using verify::FaultClass;
using verify::InjectRunResult;

std::uint64_t
digestOf(FaultClass cls, bool paired)
{
    verify::InjectRunOptions opts;
    opts.pairedCheck = paired;
    Fnv1a h;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const InjectRunResult r =
            verify::runInjectProgram(seed, cls, opts);
        h.integer(static_cast<std::int64_t>(r.seed));
        h.integer(static_cast<int>(r.cls));
        h.integer(static_cast<int>(r.outcome));
        h.integer(r.fault.fired);
        h.integer(static_cast<std::int64_t>(r.fault.seq));
        h.integer(r.fault.pc);
        h.integer(static_cast<std::int64_t>(r.fault.cycle));
        h.integer(static_cast<std::int64_t>(r.fault.applied));
        h.integer(static_cast<std::int64_t>(r.detectionLatencyCycles));
        h.integer(static_cast<std::int64_t>(r.lockstepInstructions));
        h.u64(std::bit_cast<std::uint64_t>(r.deadlineSeconds));
        h.u64(std::bit_cast<std::uint64_t>(r.completionSeconds));
        h.integer(r.deadlineMet);
        h.integer(r.restarts);
        h.integer(r.checksum);
        h.integer(r.goldenChecksum);
        h.integer(r.blockPc);
        h.integer(static_cast<std::int64_t>(r.blockEntries));
        h.integer(r.pairedChecked);
        h.integer(r.pairedDetected);
        h.text(r.source);
        h.text("|");
        h.text(r.report);
        h.text("|");
    }
    return h.value();
}

struct ClassRow
{
    FaultClass cls;
    std::uint64_t want;
    /** The same runs with the paired-core vote on. */
    std::uint64_t wantPaired;
};

const ClassRow classRows[] = {
    {FaultClass::RegBitFlip, 0x77aa395bbdd98355ULL,
     0x1216d17481d81996ULL},
    {FaultClass::LoadValue, 0x2336793ca59ffb7fULL,
     0x913384331d96a24eULL},
    {FaultClass::LoadAddr, 0xd47cdb264f3b5222ULL,
     0xd1cfc16059c2b32bULL},
    {FaultClass::StoreAddr, 0xc48d93067db9dd12ULL,
     0x2243fee28431a0e1ULL},
    {FaultClass::BranchDir, 0xddfc9ff8b7a1e3f6ULL,
     0x2a5312f9139e0247ULL},
    {FaultClass::BranchTarget, 0x87b93ead66dc9a5aULL,
     0x91ac8a1046fe7851ULL},
    {FaultClass::DecodeImm, 0xbddcf8b5e87aae2eULL,
     0xfaa584a38bcf5777ULL},
    {FaultClass::WakeupStall, 0xf74edf388459e4c5ULL,
     0x2f385ae7e4f495a5ULL},
    {FaultClass::LoadExt, 0xfcaf99361566a9d1ULL,
     0x52d681811e849b81ULL},
};

TEST(InjectPin, AllClasses)
{
    static_assert(std::size(classRows) == verify::numFaultClasses);
    for (const ClassRow &row : classRows) {
        const std::uint64_t have = digestOf(row.cls, false);
        EXPECT_EQ(have, row.want)
            << verify::faultClassName(row.cls) << ": new digest 0x"
            << std::hex << have << "ULL";
        const std::uint64_t paired = digestOf(row.cls, true);
        EXPECT_EQ(paired, row.wantPaired)
            << verify::faultClassName(row.cls)
            << " (paired vote): new digest 0x" << std::hex << paired
            << "ULL";
    }
}

} // anonymous namespace
} // namespace visa
