/**
 * @file
 * WCET analyzer tests: CFG construction, loop discovery, caching
 * categorizations (Table 2), and — most importantly — the soundness
 * invariant T1: the analyzer's bound is never below the cycles the
 * simple-fixed simulator actually takes, at any DVS frequency, while
 * staying reasonably tight.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "wcet/analyzer.hh"

namespace visa
{
namespace
{

using test::SimpleMachine;

// ---- CFG ----

TEST(CfgTest, StraightLineSingleBlock)
{
    Program p = assemble(R"(
        addi r4, r0, 1
        addi r5, r0, 2
        halt
    )");
    Cfg cfg(p, p.entry);
    EXPECT_EQ(cfg.blocks().size(), 1u);
    EXPECT_TRUE(cfg.loops().empty());
    EXPECT_EQ(cfg.block(0).numInsts(), 3);
}

TEST(CfgTest, DiamondControlFlow)
{
    Program p = assemble(R"(
        beq r4, r0, alt
        addi r5, r0, 1
        j join
alt:    addi r5, r0, 2
join:   halt
    )");
    Cfg cfg(p, p.entry);
    EXPECT_EQ(cfg.blocks().size(), 4u);
    const BasicBlock &head = cfg.block(cfg.entryBlock());
    ASSERT_EQ(head.succs.size(), 2u);
    // Taken edge listed first.
    EXPECT_EQ(cfg.block(head.succs[0]).startPc, p.symbol("alt"));
}

TEST(CfgTest, LoopDiscoveryAndBound)
{
    Program p = assemble(R"(
        addi r4, r0, 10
loop:   subi r4, r4, 1
        .loopbound 10
        bgtz r4, loop
        halt
    )");
    Cfg cfg(p, p.entry);
    ASSERT_EQ(cfg.loops().size(), 1u);
    EXPECT_EQ(cfg.loops()[0].bound, 10u);
    EXPECT_EQ(cfg.block(cfg.loops()[0].header).startPc,
              p.symbol("loop"));
}

TEST(CfgTest, NestedLoops)
{
    Program p = assemble(R"(
        addi r4, r0, 5
outer:  addi r5, r0, 3
inner:  subi r5, r5, 1
        .loopbound 3
        bgtz r5, inner
        subi r4, r4, 1
        .loopbound 5
        bgtz r4, outer
        halt
    )");
    Cfg cfg(p, p.entry);
    ASSERT_EQ(cfg.loops().size(), 2u);
    const Loop *inner = nullptr, *outer = nullptr;
    for (const auto &l : cfg.loops())
        (l.bound == 3 ? inner : outer) = &l;
    ASSERT_TRUE(inner && outer);
    EXPECT_EQ(inner->parent, outer->id);
    EXPECT_EQ(outer->parent, -1);
}

TEST(CfgTest, CallGraphDiscovery)
{
    Program p = assemble(R"(
        .entry main
leaf:   addi r5, r5, 1
        jr ra
main:   jal leaf
        jal leaf
        halt
    )");
    Cfg cfg(p, p.entry);
    ASSERT_EQ(cfg.callTargets().size(), 1u);
    EXPECT_EQ(*cfg.callTargets().begin(), p.symbol("leaf"));
}

TEST(CfgTest, MissingLoopBoundRejected)
{
    Program p = assemble(R"(
        addi r4, r0, 10
loop:   subi r4, r4, 1
        bgtz r4, loop
        halt
    )");
    EXPECT_THROW((Cfg(p, p.entry)), FatalError);
}

TEST(CfgTest, JalrRejected)
{
    Program p = assemble(R"(
        jalr r31, r4
        halt
    )");
    EXPECT_THROW((Cfg(p, p.entry)), FatalError);
}

// ---- I-cache categorizations ----

TEST(ICacheCatTest, SmallProgramFirstMissThenHits)
{
    Program p = assemble(R"(
        .subtask 1
        addi r4, r0, 100
loop:   subi r4, r4, 1
        .loopbound 100
        bgtz r4, loop
        halt
    )");
    WcetAnalyzer an(p);
    const auto &cache = an.mainCache();
    // First instruction leads its memory block: first-miss at the
    // task level (the program fits the cache untouched).
    EXPECT_EQ(cache.at(p.textBase).cat, CacheCat::FirstMiss);
    EXPECT_EQ(cache.at(p.textBase).fmScope, -1);
    // +4 starts a new basic block (the loop header), so it is
    // re-categorized; +8 follows in the same block and memory line.
    EXPECT_EQ(cache.at(p.textBase + 4).cat, CacheCat::FirstMiss);
    EXPECT_EQ(cache.at(p.textBase + 8).cat, CacheCat::AlwaysHit);
    // The charge is deduplicated per memory block: this whole program
    // occupies one 64-byte line, so exactly one first-miss is billed.
    EXPECT_EQ(cache.fmBlocks(-1).size(), 1u);
}

TEST(ICacheCatTest, TableTwoNames)
{
    EXPECT_STREQ(cacheCatName(CacheCat::AlwaysHit), "h");
    EXPECT_STREQ(cacheCatName(CacheCat::AlwaysMiss), "m");
    EXPECT_STREQ(cacheCatName(CacheCat::FirstMiss), "fm");
    EXPECT_STREQ(cacheCatName(CacheCat::FirstHit), "fh");
}

// ---- WCET bounds: soundness (T1) and tightness ----

struct WcetCase
{
    const char *name;
    const char *source;
};

// gtest's default printer would dump the two pointers' bytes into the
// test's listed name, which then changes with every load address.
void PrintTo(const WcetCase &wc, std::ostream *os)
{
    *os << wc.name;
}

const WcetCase wcetCases[] = {
    {"straightline", R"(
        addi r4, r0, 1
        add  r5, r4, r4
        mul  r6, r5, r5
        div  r7, r6, r5
        halt
    )"},
    {"counted_loop", R"(
        addi r4, r0, 64
        addi r5, r0, 0
loop:   add  r5, r5, r4
        subi r4, r4, 1
        .loopbound 64
        bgtz r4, loop
        halt
    )"},
    {"memory_loop", R"(
        la   r4, buf
        addi r5, r0, 32
loop:   lw   r6, 0(r4)
        add  r7, r7, r6
        sw   r7, 128(r4)
        addi r4, r4, 4
        subi r5, r5, 1
        .loopbound 32
        bgtz r5, loop
        halt
        .data
buf:    .space 512
    )"},
    {"branchy_loop", R"(
        addi r4, r0, 50
        addi r5, r0, 0
loop:   andi r6, r4, 1
        beq  r6, r0, even
        add  r5, r5, r4
        j next
even:   sub  r5, r5, r4
next:   subi r4, r4, 1
        .loopbound 50
        bgtz r4, loop
        halt
    )"},
    {"nested_loops", R"(
        addi r4, r0, 8
outer:  addi r5, r0, 8
inner:  mul  r6, r4, r5
        add  r7, r7, r6
        subi r5, r5, 1
        .loopbound 8
        bgtz r5, inner
        subi r4, r4, 1
        .loopbound 8
        bgtz r4, outer
        halt
    )"},
    {"fp_kernel", R"(
        la   r4, v
        addi r5, r0, 16
        ldc1 f2, 0(r4)
loop:   ldc1 f4, 8(r4)
        mul.d f6, f2, f4
        add.d f8, f8, f6
        addi r4, r4, 8
        subi r5, r5, 1
        .loopbound 16
        bgtz r5, loop
        sdc1 f8, 0(r4)
        halt
        .data
v:      .double 1.5, 2.5, 0.5, 1.25, 3.0, 0.25, 2.0, 1.0
        .double 1.5, 2.5, 0.5, 1.25, 3.0, 0.25, 2.0, 1.0
        .double 0.0
    )"},
    {"call_leaf", R"(
        .entry main
leaf:   mul  r6, r4, r4
        add  r5, r5, r6
        jr   ra
main:   addi r4, r0, 5
        jal  leaf
        addi r4, r4, 2
        jal  leaf
        halt
    )"},
    {"early_exit_loop", R"(
        addi r4, r0, 100
        addi r5, r0, 0
loop:   add  r5, r5, r4
        slti r6, r5, 1000
        beq  r6, r0, done      # early exit once the sum is large
        subi r4, r4, 1
        .loopbound 100
        bgtz r4, loop
done:   halt
    )"},
};

class WcetSoundness : public ::testing::TestWithParam<WcetCase>
{
};

TEST_P(WcetSoundness, BoundsSimulatorAtEveryFrequency)
{
    const WcetCase &wc = GetParam();
    SimpleMachine m(wc.source);
    WcetAnalyzer an(m.prog);
    DMissProfile dmiss = profileDataMisses(m.prog);

    for (MHz f : {100u, 250u, 475u, 700u, 1000u}) {
        SimpleMachine run(wc.source);
        run.cpu->setFrequency(f);
        auto res = run.run();
        ASSERT_EQ(res.reason, StopReason::Halted) << wc.name;
        WcetReport rep = an.analyze(f, &dmiss);
        EXPECT_GE(rep.taskCycles, run.cpu->cycles())
            << wc.name << " at " << f << " MHz";
        // Tightness guard: the bound should not explode (the paper's
        // worst over-estimate is 2.0x for srt; allow slack for tiny
        // kernels where fixed costs dominate).
        EXPECT_LE(rep.taskCycles, run.cpu->cycles() * 4 + 2000)
            << wc.name << " at " << f << " MHz";
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, WcetSoundness,
                         ::testing::ValuesIn(wcetCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

TEST(WcetSoundness, AlsoBoundsComplexPipelineSimpleMode)
{
    const char *src = wcetCases[1].source;    // counted_loop
    test::OooMachine m(src);
    m.cpu->switchToSimple();
    m.run();
    WcetAnalyzer an(m.prog);
    WcetReport rep = an.analyze(1000);
    EXPECT_GE(rep.taskCycles, m.cpu->cycles());
}

TEST(WcetTightness, SteadyLoopWithinFifteenPercent)
{
    // A regular counted loop is the analyzer's best case: the bound
    // should be close to reality (paper: 1.00-1.16 for such kernels).
    const char *src = R"(
        addi r4, r0, 256
        addi r5, r0, 0
loop:   add  r5, r5, r4
        add  r6, r6, r5
        add  r7, r7, r6
        subi r4, r4, 1
        .loopbound 256
        bgtz r4, loop
        halt
    )";
    SimpleMachine m(src);
    m.run();
    WcetAnalyzer an(m.prog);
    WcetReport rep = an.analyze(1000);
    double ratio = static_cast<double>(rep.taskCycles) /
                   static_cast<double>(m.cpu->cycles());
    EXPECT_GE(ratio, 1.0);
    EXPECT_LE(ratio, 1.15);
}

TEST(WcetSubtasks, PerSubtaskBoundsSumToTask)
{
    Program p = assemble(R"(
        .subtask 1
        addi r4, r0, 40
s1:     subi r4, r4, 1
        .loopbound 40
        bgtz r4, s1
        .subtask 2
        addi r5, r0, 40
s2:     subi r5, r5, 1
        .loopbound 40
        bgtz r5, s2
        .subtask 3
        addi r6, r0, 7
        halt
    )");
    WcetAnalyzer an(p);
    EXPECT_EQ(an.numSubtasks(), 3);
    WcetReport rep = an.analyze(1000);
    ASSERT_EQ(rep.subtaskCycles.size(), 3u);
    Cycles sum = 0;
    for (Cycles c : rep.subtaskCycles)
        sum += c;
    EXPECT_EQ(sum, rep.taskCycles);
    // The two loop sub-tasks should dominate the straight-line tail.
    EXPECT_GT(rep.subtaskCycles[0], rep.subtaskCycles[2]);
    EXPECT_GT(rep.subtaskCycles[1], rep.subtaskCycles[2]);
}

TEST(WcetSubtasks, SubtaskBoundsCoverPartialExecutions)
{
    // Invariant T4 groundwork: each sub-task bound must cover the
    // cycles the simulator spends inside that sub-task.
    const char *src = R"(
        .subtask 1
        li   r8, 0xFFFF0010
        li   r11, 1
        sw   r11, 0(r8)
        addi r4, r0, 30
        la   r9, buf
s1:     lw   r10, 0(r9)
        add  r10, r10, r4
        sw   r10, 0(r9)
        subi r4, r4, 1
        .loopbound 30
        bgtz r4, s1
        .subtask 2
        li   r11, 2
        sw   r11, 0(r8)
        addi r5, r0, 60
s2:     mul  r6, r5, r5
        subi r5, r5, 1
        .loopbound 60
        bgtz r5, s2
        halt
        .data
buf:    .word 0
    )";
    SimpleMachine m(src);
    WcetAnalyzer an(m.prog);
    DMissProfile dmiss = profileDataMisses(m.prog);
    WcetReport rep = an.analyze(1000, &dmiss);

    // Measure per-subtask actual cycles via marker callbacks.
    std::vector<Cycles> stamps;
    m.platform.onSubtaskBegin = [&](int) {
        stamps.push_back(m.cpu->cycles());
    };
    m.run();
    stamps.push_back(m.cpu->cycles());
    ASSERT_EQ(stamps.size(), 3u);
    // Note: stamps lag the marker by the in-flight snippet, so compare
    // cumulative sums conservatively.
    EXPECT_GE(rep.subtaskCycles[0] + rep.subtaskCycles[1],
              stamps[2] - stamps[0]);
    EXPECT_GE(rep.subtaskCycles[0] + 100, stamps[1] - stamps[0]);
}

TEST(WcetFrequency, BoundScalesWithMissPenalty)
{
    Program p = assemble(R"(
        addi r4, r0, 4
        halt
    )");
    WcetAnalyzer an(p);
    EXPECT_EQ(an.missPenalty(1000), 100u);
    EXPECT_EQ(an.missPenalty(100), 10u);
    WcetReport fast = an.analyze(1000);
    WcetReport slow = an.analyze(100);
    EXPECT_GT(fast.taskCycles, slow.taskCycles);    // more stall cycles
    // Wall-clock time at the lower frequency is longer.
    EXPECT_GT(slow.taskMicros(), fast.taskMicros());
}

TEST(WcetDmissPad, PaddingAddsMissPenalty)
{
    Program p = assemble(R"(
        .subtask 1
        addi r4, r0, 4
        halt
    )");
    WcetAnalyzer an(p);
    WcetReport base = an.analyze(1000);
    DMissProfile pad;
    pad.missesPerSubtask = {5};
    WcetReport padded = an.analyze(1000, &pad);
    EXPECT_EQ(padded.taskCycles, base.taskCycles + 5 * 100);
    pad.safetyFactor = 2.0;
    WcetReport padded2 = an.analyze(1000, &pad);
    EXPECT_EQ(padded2.taskCycles, base.taskCycles + 10 * 100);
}

TEST(WcetDmissProfile, CountsColdMisses)
{
    // Sub-tasks are announced through the MMIO port, exactly as the
    // instrumentation snippets emitted by the workload generators do.
    Program p = assemble(R"(
        .subtask 1
        li  r8, 0xFFFF0010
        li  r9, 1
        sw  r9, 0(r8)
        la  r4, buf
        lw  r5, 0(r4)
        lw  r6, 256(r4)
        .subtask 2
        li  r9, 2
        sw  r9, 0(r8)
        lw  r7, 512(r4)
        halt
        .data
buf:    .space 1024
    )");
    DMissProfile prof = profileDataMisses(p);
    ASSERT_EQ(prof.missesPerSubtask.size(), 2u);
    EXPECT_EQ(prof.missesPerSubtask[0], 2u);
    EXPECT_EQ(prof.missesPerSubtask[1], 1u);
}

} // anonymous namespace
} // namespace visa
