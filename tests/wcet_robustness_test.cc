/**
 * @file
 * Robustness and edge-case tests of the WCET analyzer: rejection of
 * unanalyzable shapes (recursion, irreducible flow, marker misuse),
 * the path-explosion fallback, loop-bound semantics, call handling,
 * and the analyzer's own conservatism knobs.
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

TEST(WcetRobustness, RecursionRejected)
{
    Program p = assemble(R"(
        .entry main
rec:    subi r4, r4, 1
        blez r4, out
        jal rec
out:    jr ra
main:   addi r4, r0, 3
        jal rec
        halt
    )");
    EXPECT_THROW(WcetAnalyzer{p}, FatalError);
}

TEST(WcetRobustness, MultipleBackEdgesRejected)
{
    // Two latches into one header: the single-latch discipline the
    // analyzer documents.
    Program p = assemble(R"(
        addi r4, r0, 10
head:   subi r4, r4, 1
        andi r5, r4, 1
        beq r5, r0, other
        .loopbound 10
        bgtz r4, head
        j done
other:  .loopbound 10
        bgtz r4, head
done:   halt
    )");
    EXPECT_THROW(WcetAnalyzer{p}, FatalError);
}

TEST(WcetRobustness, SubtaskMarkerInsideLoopRejected)
{
    Program p = assemble(R"(
        .subtask 1
        addi r4, r0, 10
loop:   subi r4, r4, 1
        .subtask 2
        nop
        .loopbound 10
        bgtz r4, loop
        halt
    )");
    EXPECT_THROW(WcetAnalyzer{p}, FatalError);
}

TEST(WcetRobustness, SubtaskIdsMustBeOrdered)
{
    Program p = assemble(R"(
        .subtask 2
        addi r4, r0, 1
        .subtask 1
        halt
    )");
    EXPECT_THROW(WcetAnalyzer{p}, FatalError);
}

TEST(WcetRobustness, FirstMarkerMustSitAtEntry)
{
    Program p = assemble(R"(
        addi r4, r0, 1
        .subtask 1
        halt
    )");
    EXPECT_THROW(WcetAnalyzer{p}, FatalError);
}

TEST(WcetRobustness, PathExplosionFallsBackSoundly)
{
    // 16 consecutive diamonds = 65536 paths > the 4096 cap: the
    // analyzer must warn, fall back to drain composition, and stay
    // sound (and conservative).
    std::string src;
    for (int i = 0; i < 16; ++i) {
        std::string t = std::to_string(i);
        src += "        andi r2, r9, " + std::to_string(1 << (i % 10)) +
               "\n";
        src += "        beq r2, r0, e" + t + "\n";
        src += "        add r5, r5, r6\n";
        src += "        j j" + t + "\n";
        src += "e" + t + ":  sub r5, r5, r6\n";
        src += "j" + t + ":  nop\n";
    }
    src += "        halt\n";
    AnalyzerParams params;
    params.maxPaths = 4096;
    Program p = assemble(src);
    WcetAnalyzer an(p, params);
    SimpleMachine m(src);
    m.cpu->arch().writeInt(9, 0x2AA);
    m.run();
    WcetReport rep = an.analyze(1000);
    EXPECT_GE(rep.taskCycles, m.cpu->cycles());
}

TEST(WcetRobustness, PathCapOverflowBoundsEveryPath)
{
    // 13 diamonds = 8192 paths > the 4096 cap. Enumeration takes each
    // branch's taken (short) arm first, so every path it can keep skips
    // the 200 muls on the first diamond's fall-through arm; with
    // r9 = -1 every branch falls through and the run pays for them. A
    // bound over only the kept paths falls ~1000 cycles short.
    std::string src;
    for (int i = 0; i < 13; ++i) {
        std::string t = std::to_string(i);
        src += "        andi r2, r9, " + std::to_string(1 << (i % 10)) +
               "\n";
        src += "        beq r2, r0, e" + t + "\n";
        src += "        add r5, r5, r6\n";
        if (i == 0)
            for (int k = 0; k < 200; ++k)
                src += "        mul r7, r7, r6\n";
        src += "        j j" + t + "\n";
        src += "e" + t + ":  sub r5, r5, r6\n";
        src += "j" + t + ":  nop\n";
    }
    src += "        halt\n";
    Program p = assemble(src);
    WcetAnalyzer capped(p);
    AnalyzerParams wide;
    wide.maxPaths = 16384;
    WcetAnalyzer every(p, wide);
    for (MHz f : {100u, 1000u}) {
        SimpleMachine m(src);
        m.cpu->setFrequency(f);
        m.cpu->arch().writeInt(9, 0xFFFFFFFFu);
        ASSERT_EQ(m.run().reason, StopReason::Halted);
        const Cycles bound = capped.analyze(f).taskCycles;
        EXPECT_GE(bound, m.cpu->cycles()) << f << " MHz";
        // It also covers the worst path full enumeration finds.
        EXPECT_GE(bound, every.analyze(f).taskCycles) << f << " MHz";
    }
}

TEST(WcetRobustness, LoopBoundIsPerEntry)
{
    // The inner loop runs its full bound on every outer iteration:
    // WCET must scale with the product.
    auto build = [](int outer) {
        std::string s;
        s += "        addi r4, r0, " + std::to_string(outer) + "\n";
        s += "o:      addi r5, r0, 6\n";
        s += "i:      subi r5, r5, 1\n";
        s += "        .loopbound 6\n";
        s += "        bgtz r5, i\n";
        s += "        subi r4, r4, 1\n";
        s += "        .loopbound " + std::to_string(outer) + "\n";
        s += "        bgtz r4, o\n";
        s += "        halt\n";
        return s;
    };
    Program p4 = assemble(build(4));
    Program p8 = assemble(build(8));
    WcetAnalyzer a4(p4);
    WcetAnalyzer a8(p8);
    Cycles w4 = a4.analyze(1000).taskCycles;
    Cycles w8 = a8.analyze(1000).taskCycles;
    // Four extra outer iterations, each running the full inner bound
    // (~25 cycles per iteration); the fixed cold-miss charge does not
    // grow.
    EXPECT_GT(w8, w4 + 4 * 20);
    EXPECT_LT(w8, w4 * 2);
}

TEST(WcetRobustness, CalleeChargedPerCallSite)
{
    auto build = [](int calls) {
        std::string s = "        .entry main\n";
        s += "leaf:   mul r5, r6, r7\n";
        s += "        add r8, r8, r5\n";
        s += "        jr ra\n";
        s += "main:\n";
        for (int i = 0; i < calls; ++i)
            s += "        jal leaf\n";
        s += "        halt\n";
        return s;
    };
    Program p2 = assemble(build(2));
    Program p6 = assemble(build(6));
    WcetAnalyzer a2(p2);
    WcetAnalyzer a6(p6);
    Cycles w2 = a2.analyze(1000).taskCycles;
    Cycles w6 = a6.analyze(1000).taskCycles;
    EXPECT_GT(w6, w2);
    // And both bound the simulator.
    SimpleMachine m(build(6));
    m.run();
    EXPECT_GE(w6, m.cpu->cycles());
}

TEST(WcetRobustness, CallInsideLoopMultiplies)
{
    const char *src = R"(
        .entry main
leaf:   mul r5, r6, r7
        jr ra
main:   addi r4, r0, 12
loop:   jal leaf
        subi r4, r4, 1
        .loopbound 12
        bgtz r4, loop
        halt
    )";
    Program p = assemble(src);
    WcetAnalyzer an(p);
    SimpleMachine m(src);
    m.run();
    Cycles w = an.analyze(1000).taskCycles;
    EXPECT_GE(w, m.cpu->cycles());
    // Documented conservatism (DESIGN.md): the callee's first-miss
    // charge is billed once per call, so the bound includes up to
    // 12 extra I-miss penalties plus drain boundaries.
    EXPECT_LT(w, m.cpu->cycles() + 12 * 150 + 500);
}

TEST(WcetRobustness, IterSlackKnobIsMonotone)
{
    const char *src = R"(
        addi r4, r0, 100
loop:   add r5, r5, r4
        subi r4, r4, 1
        .loopbound 100
        bgtz r4, loop
        halt
    )";
    Program p = assemble(src);
    AnalyzerParams tight;
    AnalyzerParams slack;
    slack.iterSlack = 3;
    WcetAnalyzer at(p, tight);
    WcetAnalyzer as(p, slack);
    Cycles wt = at.analyze(1000).taskCycles;
    Cycles ws = as.analyze(1000).taskCycles;
    EXPECT_EQ(ws, wt + 99 * 3);    // (bound-1) * slack
}

TEST(WcetRobustness, SelfLoopSingleBlock)
{
    const char *src = R"(
        addi r4, r0, 40
loop:   subi r4, r4, 1
        .loopbound 40
        bgtz r4, loop
        halt
    )";
    Program p = assemble(src);
    Cfg cfg(p, p.entry);
    ASSERT_EQ(cfg.loops().size(), 1u);
    EXPECT_EQ(cfg.loops()[0].blocks.size(), 1u);
    SimpleMachine m(src);
    m.run();
    WcetAnalyzer an(p);
    EXPECT_GE(an.analyze(1000).taskCycles, m.cpu->cycles());
}

TEST(WcetRobustness, BoundViolationWouldBeUnsound)
{
    // Sanity that the tests themselves can detect unsoundness: an
    // intentionally under-annotated loop yields WCET below the
    // simulator (demonstrating why correct bounds are load-bearing).
    const char *src = R"(
        addi r4, r0, 50
loop:   add r5, r5, r4
        subi r4, r4, 1
        .loopbound 5
        bgtz r4, loop
        halt
    )";
    Program p = assemble(src);
    WcetAnalyzer an(p);
    SimpleMachine m(src);
    m.run();
    EXPECT_LT(an.analyze(1000).taskCycles, m.cpu->cycles());
}

} // anonymous namespace
} // namespace visa
