/**
 * @file
 * Fault-injection output pins: runInjectProgram() for seeds 1-40 of
 * every fault class, each class folded into one FNV-1a digest of every
 * field the run returns: the outcome, the fault record, detection
 * latency, lockstep length, the deadline economics at full precision,
 * restarts, both checksums, the block join, the paired vote, the
 * generated source and the report text.
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
digestOf(FaultClass cls)
{
    Fnv1a h;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const InjectRunResult r = verify::runInjectProgram(seed, cls);
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
};

const ClassRow classRows[] = {
    {FaultClass::RegBitFlip, 0x77aa395bbdd98355ULL},
    {FaultClass::LoadValue, 0x2336793ca59ffb7fULL},
    {FaultClass::LoadAddr, 0xd47cdb264f3b5222ULL},
    {FaultClass::StoreAddr, 0xc48d93067db9dd12ULL},
    {FaultClass::BranchDir, 0xddfc9ff8b7a1e3f6ULL},
    {FaultClass::BranchTarget, 0x87b93ead66dc9a5aULL},
    {FaultClass::DecodeImm, 0xbddcf8b5e87aae2eULL},
    {FaultClass::WakeupStall, 0xf74edf388459e4c5ULL},
    {FaultClass::LoadExt, 0xfcaf99361566a9d1ULL},
};

TEST(InjectPin, AllClasses)
{
    static_assert(std::size(classRows) == verify::numFaultClasses);
    for (const ClassRow &row : classRows) {
        const std::uint64_t have = digestOf(row.cls);
        EXPECT_EQ(have, row.want)
            << verify::faultClassName(row.cls) << ": new digest 0x"
            << std::hex << have << "ULL";
    }
}

} // anonymous namespace
} // namespace visa
