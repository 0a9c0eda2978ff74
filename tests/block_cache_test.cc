/**
 * @file
 * Basic-block translation cache tests: store-to-code invalidation
 * (self-modifying programs re-decode and match the uncached path
 * exactly), cache-on/off lockstep equivalence over generated programs,
 * the block-granular runFunctional fast path against the per-step
 * reference, the BlockCacheStats group in the stats export, and
 * byte-identical determinism across thread-pool widths.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cpu/simple_cpu.hh"
#include "sim/parallel.hh"
#include "tests/test_util.hh"
#include "verify/lockstep.hh"
#include "verify/progen.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

/**
 * A self-modifying program: `run` returns 5 on the first call, then
 * main copies the encoded word of `donor` over `patch` and calls it
 * again, which must yield 77 — but only if the store into text
 * invalidates the already-executed (and chained) block.
 */
const char *selfModifySource = R"(
        .entry main
main:   la   r4, patch
        la   r6, donor
        lw   r5, 0(r6)        # encoded "addi r8, r0, 77"
        jal  run
        add  r10, r0, r8      # first pass: original instruction
        sw   r5, 0(r4)        # overwrite the patch site
        jal  run
        add  r11, r0, r8      # second pass: must see the new code
        halt
run:
patch:  addi r8, r0, 5
        jr   ra
donor:  addi r8, r0, 77       # never reached by fall-through
        jr   ra
)";

/** Final architectural state must match between two ExecCores. */
void
expectSameArchState(const ArchState &a, const ArchState &b)
{
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.fcc, b.fcc);
    for (int r = 0; r < numIntRegs; ++r)
        EXPECT_EQ(a.readInt(r), b.readInt(r)) << "r" << r;
    for (int f = 0; f < numFpRegs; ++f) {
        const auto fi = static_cast<std::size_t>(f);
        EXPECT_EQ(a.fpRegs[fi], b.fpRegs[fi]) << "f" << f;
    }
}

TEST(BlockCache, SelfModifyingStoreForcesRedecode)
{
    const Program prog = assemble(selfModifySource);

    MainMemory mem;
    mem.loadProgram(prog);
    Platform plat;
    ExecCore core(prog, mem, plat);
    core.reset();
    ASSERT_TRUE(core.blockCacheEnabled());
    const ExecCore::FuncRunResult r = core.runFunctional(100000);
    ASSERT_TRUE(r.halted);

    // Both passes produced their own code's value: the overwrite was
    // picked up even though the patch block had already been decoded.
    EXPECT_EQ(core.state().readInt(10), 5u);
    EXPECT_EQ(core.state().readInt(11), 77u);

    const BlockCacheStats s = core.blockCacheStats();
    EXPECT_TRUE(s.enabled);
    EXPECT_GE(s.invalidations, 1u) << "store-to-code must kill blocks";
    EXPECT_GE(s.codeResyncs, 1u);
    EXPECT_GT(s.blocksDecoded, 0u);
    EXPECT_GT(s.instsDecoded, 0u);
}

TEST(BlockCache, SelfModifyingRunMatchesUncachedPath)
{
    const Program prog = assemble(selfModifySource);

    auto runOne = [&](bool cached, std::uint64_t &insts) {
        MainMemory mem;
        mem.loadProgram(prog);
        Platform plat;
        auto core = std::make_unique<ExecCore>(prog, mem, plat);
        core->setBlockCacheEnabled(cached);
        core->reset();
        const ExecCore::FuncRunResult r = core->runFunctional(100000);
        EXPECT_TRUE(r.halted);
        insts = r.insts;
        return core;
    };

    std::uint64_t cachedInsts = 0, uncachedInsts = 0;
    auto cached = runOne(true, cachedInsts);
    auto uncached = runOne(false, uncachedInsts);
    EXPECT_EQ(cachedInsts, uncachedInsts);
    expectSameArchState(cached->state(), uncached->state());
}

TEST(BlockCache, SelfModifyingPipelineMatchesUncached)
{
    // The same program through a full SimpleCpu pipeline (which steps
    // the core instruction-at-a-time through the cached dispatch),
    // cache on vs off via the SimBuilder knob.
    auto run = [&](bool cache) {
        auto sim = SimBuilder()
                       .source(selfModifySource)
                       .cpu(CpuKind::Simple)
                       .blockCache(cache)
                       .build();
        sim->cpu().run(noCycleLimit);
        return sim;
    };
    auto on = run(true);
    auto off = run(false);
    EXPECT_EQ(on->cpu().execCore().blockCacheStats().enabled, true);
    EXPECT_EQ(off->cpu().execCore().blockCacheStats().enabled, false);
    EXPECT_EQ(on->cpu().cycles(), off->cpu().cycles());
    expectSameArchState(on->cpu().arch(), off->cpu().arch());
    EXPECT_EQ(on->cpu().arch().readInt(10), 5u);
    EXPECT_EQ(on->cpu().arch().readInt(11), 77u);
}

TEST(BlockCache, RunFunctionalMatchesPerStepReference)
{
    const Workload wl = makeWorkload("mm");

    MainMemory memA;
    memA.loadProgram(wl.program);
    Platform platA;
    ExecCore fast(wl.program, memA, platA);
    fast.reset();
    const ExecCore::FuncRunResult r = fast.runFunctional(50'000'000);
    ASSERT_TRUE(r.halted);

    MainMemory memB;
    memB.loadProgram(wl.program);
    Platform platB;
    ExecCore ref(wl.program, memB, platB);
    ref.setBlockCacheEnabled(false);
    ref.reset();
    std::uint64_t n = 0;
    while (!ref.step(false).halted)
        ++n;
    ++n;    // the HALT itself

    EXPECT_EQ(r.insts, n);
    expectSameArchState(fast.state(), ref.state());
    EXPECT_EQ(platA.lastChecksum(), platB.lastChecksum());
    EXPECT_EQ(platA.lastChecksum(), wl.expectedChecksum);
}

TEST(BlockCache, BudgetedRunFunctionalResumesMidBlock)
{
    // Tiny budgets force the fast path to stop inside blocks and
    // resume; the aggregate must still match an unbounded run.
    const Workload wl = makeWorkload("cnt");

    MainMemory memA;
    memA.loadProgram(wl.program);
    Platform platA;
    ExecCore chunked(wl.program, memA, platA);
    chunked.reset();
    std::uint64_t total = 0;
    bool halted = false;
    while (!halted) {
        const ExecCore::FuncRunResult r = chunked.runFunctional(7);
        total += r.insts;
        halted = r.halted;
        ASSERT_LT(total, 50'000'000u) << "no forward progress";
    }

    MainMemory memB;
    memB.loadProgram(wl.program);
    Platform platB;
    ExecCore whole(wl.program, memB, platB);
    whole.reset();
    const ExecCore::FuncRunResult r = whole.runFunctional(50'000'000);
    ASSERT_TRUE(r.halted);

    EXPECT_EQ(total, r.insts);
    expectSameArchState(chunked.state(), whole.state());
}

TEST(BlockCache, SplitLockstepCacheOnVsOff)
{
    // Reference rig uncached, candidate rig cached: every generated
    // program becomes a cache-on/off equivalence check layered on the
    // usual pipeline diff.
    verify::GenParams gen;
    verify::LockstepOptions opts;
    opts.refBlockCache = false;
    opts.candBlockCache = true;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        const verify::GeneratedProgram g = verify::generate(seed, gen);
        const verify::LockstepResult res =
            verify::runLockstep(g.program, opts);
        EXPECT_TRUE(res.equivalent)
            << "seed " << seed << "\n" << res.report;
    }
}

TEST(BlockCache, StatsGroupExported)
{
    auto sim = SimBuilder().workload("cnt").cpu(CpuKind::Simple).build();
    sim->cpu().run(noCycleLimit);

    const BlockCacheStats s = sim->cpu().execCore().blockCacheStats();
    EXPECT_TRUE(s.enabled);
    EXPECT_GT(s.blocksDecoded, 0u);
    EXPECT_GT(s.blockHits + s.instsDecoded, 0u);
    EXPECT_EQ(s.invalidations, 0u) << "cnt never writes its text";

    std::ostringstream os;
    sim->cpu().dumpStatsJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("block_cache"), std::string::npos);
    EXPECT_NE(json.find("blocks_decoded"), std::string::npos);
    EXPECT_NE(json.find("block_hits"), std::string::npos);
    EXPECT_NE(json.find("invalidations"), std::string::npos);
    EXPECT_NE(json.find("avg_block_len"), std::string::npos);
    EXPECT_NE(json.find("code_resyncs"), std::string::npos);
}

/** One arm of the pool-width determinism check: run + stats bytes. */
std::string
runStatsArm(const Workload &wl)
{
    auto sim = SimBuilder()
                   .program(wl.program)
                   .cpu(CpuKind::Simple)
                   .blockCache(true)
                   .build();
    sim->cpu().run(noCycleLimit);
    std::ostringstream os;
    sim->cpu().dumpStatsJson(os);
    return os.str();
}

TEST(BlockCache, StatsAreByteIdenticalAcrossPools)
{
    // Same seed/workload, different VISA_THREADS: the block cache must
    // not introduce any pool-width dependence — the exported stats
    // (which include every cache counter) must be byte-identical.
    const std::vector<std::string> names = {"cnt", "fir"};
    std::vector<Workload> wls;
    for (const auto &n : names)
        wls.push_back(makeWorkload(n));

    std::vector<std::string> serial(wls.size());
    for (std::size_t i = 0; i < wls.size(); ++i)
        serial[i] = runStatsArm(wls[i]);

    std::vector<std::string> pooled(wls.size());
    {
        test::ScopedThreads four("4");
        parallelFor(wls.size(), [&](std::size_t i) {
            pooled[i] = runStatsArm(wls[i]);
        });
    }

    for (std::size_t i = 0; i < wls.size(); ++i) {
        EXPECT_FALSE(serial[i].empty()) << names[i];
        EXPECT_EQ(pooled[i], serial[i]) << names[i];
    }
}

} // anonymous namespace
} // namespace visa
