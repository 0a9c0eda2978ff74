/**
 * @file
 * Tests of the differential verification harness itself (src/verify):
 * generator determinism and self-termination, lockstep equivalence and
 * bug detection (via the candidate pipeline's deliberate injected
 * bug), minimization quality, the timing oracle, and replay of every
 * corpus repro in tests/corpus/.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cpu/ooo_cpu.hh"
#include "isa/assembler.hh"
#include "verify/corpus.hh"
#include "verify/inject.hh"
#include "verify/lockstep.hh"
#include "verify/minimize.hh"
#include "verify/oracle.hh"
#include "verify/progen.hh"

#ifndef VISA_CORPUS_DIR
#error "VISA_CORPUS_DIR must point at tests/corpus"
#endif

namespace visa
{
namespace
{

using namespace visa::verify;

TEST(Progen, DeterministicForSeedAndParams)
{
    const GenParams params;
    const GeneratedProgram a = generate(42, params);
    const GeneratedProgram b = generate(42, params);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.dynamicBound, b.dynamicBound);
    const GeneratedProgram c = generate(43, params);
    EXPECT_NE(a.source, c.source);
}

TEST(Progen, ProfileNamesRoundTrip)
{
    for (GenProfile p : {GenProfile::Alu, GenProfile::Branch,
                         GenProfile::Memory, GenProfile::Mixed}) {
        GenProfile back{};
        ASSERT_TRUE(parseProfile(profileName(p), back));
        EXPECT_EQ(back, p);
    }
    GenProfile out{};
    EXPECT_FALSE(parseProfile("bogus", out));
}

TEST(Progen, AluProfileEmitsNoMemoryTraffic)
{
    const GenParams params{GenProfile::Alu};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const GeneratedProgram g = generate(seed, params);
        for (const Instruction &inst : g.program.text)
            EXPECT_EQ(inst.memBytes(), 0)
                << "seed " << seed << ": " << disassemble(inst, 0);
    }
}

TEST(Progen, ExecutionStaysWithinDynamicBound)
{
    // The generator's conservative bound must dominate the actual
    // dynamic instruction count — that is what makes every generated
    // program self-terminating.
    const GenParams params;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const GeneratedProgram g = generate(seed, params);
        const LockstepResult r = runLockstep(g.program);
        ASSERT_TRUE(r.equivalent) << "seed " << seed << "\n" << r.report;
        EXPECT_LE(r.instructions, g.dynamicBound) << "seed " << seed;
        EXPECT_GT(r.instructions, 0u) << "seed " << seed;
    }
}

TEST(Lockstep, PipelinesAgreeOnAHandWrittenKernel)
{
    const Program prog = assemble(R"(
        li r4, 10
        li r5, 0
Lloop:  add r5, r5, r4
        subi r4, r4, 1
        .loopbound 10
        bgtz r4, Lloop
        sw r5, 0(r0)
        halt
    )");
    const LockstepResult r = runLockstep(prog);
    EXPECT_TRUE(r.equivalent) << r.report;
    EXPECT_FALSE(r.diverged);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.instructions, 30u);
}

TEST(Lockstep, NonTerminatingProgramTimesOutCleanly)
{
    const Program prog = assemble("Lspin:  j Lspin\n");
    LockstepOptions opts;
    opts.maxInstructions = 5000;
    const LockstepResult r = runLockstep(prog, opts);
    EXPECT_FALSE(r.equivalent);
    EXPECT_FALSE(r.diverged);
    EXPECT_TRUE(r.timedOut);
}

/** Lockstep options with the candidate's injected bug enabled. */
LockstepOptions
buggyOptions()
{
    LockstepOptions opts;
    auto inj = std::make_shared<FaultInjector>(loadExtBugSpec());
    opts.prepareComplex = [inj](OooCpu &cpu) {
        cpu.setFaultPort(inj.get());
    };
    return opts;
}

TEST(Lockstep, InjectedCandidateBugIsCaughtWithinThousandPrograms)
{
    // Acceptance gate: a deliberately injected OooCpu bug (subword
    // loads zero- instead of sign-extended) must be caught within 1000
    // generated programs and minimize to a tiny repro.
    GenParams gen;
    gen.profile = GenProfile::Memory;
    const LockstepOptions buggy = buggyOptions();

    std::uint64_t failingSeed = 0;
    std::string failingSource;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        const GeneratedProgram g = generate(seed, gen);
        const LockstepResult r = runLockstep(g.program, buggy);
        if (r.diverged) {
            failingSeed = seed;
            failingSource = g.source;
            break;
        }
    }
    ASSERT_NE(failingSeed, 0u)
        << "injected bug not caught in 1000 programs";

    LockstepOptions quick = buggy;
    quick.maxInstructions = 200'000;
    quick.traceTail = 0;
    const MinimizeResult m =
        minimizeSource(failingSource, [&](const Program &p) {
            try {
                return runLockstep(p, quick).diverged;
            } catch (const std::exception &) {
                return false;    // candidate broke the machine: reject
            }
        });
    EXPECT_LE(m.instructions, 20u)
        << "minimized repro still has " << m.instructions
        << " instructions:\n" << m.source;

    // The minimized repro must still fail with the bug and pass
    // without it (it is a *candidate* bug, not a program property).
    const Program minimized = assemble(m.source);
    EXPECT_TRUE(runLockstep(minimized, buggy).diverged);
    EXPECT_TRUE(runLockstep(minimized).equivalent);
}

/**
 * The full divergence report for the first program the injected
 * load-ext bug is caught on (the flow above, default options). The
 * report shows only the last traceTail events of each rig's trace
 * ring, so the ring's capacity must not change a byte of it.
 */
constexpr const char *kInjectedLoadExtReport = R"(lockstep divergence: architectural streams differ
  first differing instruction: #94
reference(simple) stream (program order):
  #88       0x00400160  ldc1 f3, 16(r26)             f3 <- 0xACC2AAA409CBC019
  #89       0x00400164  xor r24, r24, r3             -> 0x788E928C
  #90       0x00400168  sllv r2, r3, r4              -> 0xD7578930
  #91       0x0040016C  mul r5, r10, r9              -> 0x3751F578
  #92       0x00400170  lh r5, 164(r26)              -> 0xFFFFFEB8
  #93       0x00400174  xor r24, r24, r15            -> 0x788E8B65
  #94       0x00400178  sub r12, r5, r10             -> 0xF0408EF0
  #95       0x0040017C  lbu r4, 171(r26)             -> 0x000000AF
  #96       0x00400180  xor r24, r24, r2             -> 0xAFD90255
  #97       0x00400184  xor r24, r24, r3             -> 0x42AC7AC6
  #98       0x00400188  xor r24, r24, r4             -> 0x42AC7A69
  #99       0x0040018C  xor r24, r24, r5             -> 0xBD5384D1
candidate(complex) stream (program order):
  #88       0x00400160  ldc1 f3, 16(r26)             f3 <- 0xACC2AAA409CBC019
  #89       0x00400164  xor r24, r24, r3             -> 0x788E928C
  #90       0x00400168  sllv r2, r3, r4              -> 0xD7578930
  #91       0x0040016C  mul r5, r10, r9              -> 0x3751F578
  #92       0x00400170  lh r5, 164(r26)              -> 0xFFFFFEB8
  #93       0x00400174  xor r24, r24, r15            -> 0x788E8B65
  #94       0x00400178  sub r12, r5, r10             -> 0xF0418EF0
  #95       0x0040017C  lbu r4, 171(r26)             -> 0x000000AF
  #96       0x00400180  xor r24, r24, r2             -> 0xAFD90255
  #97       0x00400184  xor r24, r24, r3             -> 0x42AC7AC6
  #98       0x00400188  xor r24, r24, r4             -> 0x42AC7A69
  #99       0x0040018C  xor r24, r24, r5             -> 0x42AC84D1
candidate(complex) trace tail:
  [       726] cpu.fetch a=0x400198 b=102 c=0
  [       726] cpu.fetch a=0x40019C b=103 c=0
  [       727] cpu.fetch a=0x4001A0 b=104 c=0
  [       730] cpu.retire a=0x400180 b=96 c=0
  [       731] cpu.retire a=0x400184 b=97 c=0
  [       732] cpu.retire a=0x400188 b=98 c=0
  [       733] cpu.retire a=0x40018C b=99 c=0
  [       734] cpu.retire a=0x400190 b=100 c=0
  [       735] cpu.retire a=0x400194 b=101 c=0
  [       735] cpu.retire a=0x400198 b=102 c=0
  [       736] cpu.retire a=0x40019C b=103 c=0
  [       736] cpu.retire a=0x4001A0 b=104 c=0
reference(simple) trace tail:
  [      1314] cpu.retire a=0x400178 b=94 c=0
  [      1315] cpu.retire a=0x40017C b=95 c=0
  [      1416] mem.icache_miss a=0x400180 b=0 c=0
  [      1416] cpu.retire a=0x400180 b=96 c=0
  [      1417] cpu.retire a=0x400184 b=97 c=0
  [      1418] cpu.retire a=0x400188 b=98 c=0
  [      1419] cpu.retire a=0x40018C b=99 c=0
  [      1420] cpu.retire a=0x400190 b=100 c=0
  [      1421] cpu.retire a=0x400194 b=101 c=0
  [      1422] cpu.retire a=0x400198 b=102 c=0
  [      1424] cpu.retire a=0x40019C b=103 c=0
  [      1425] cpu.retire a=0x4001A0 b=104 c=0
)";

TEST(Lockstep, InjectedDivergenceReportIsByteIdentical)
{
    GenParams gen;
    gen.profile = GenProfile::Memory;
    const LockstepOptions buggy = buggyOptions();
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        const LockstepResult r =
            runLockstep(generate(seed, gen).program, buggy);
        if (r.diverged) {
            EXPECT_EQ(seed, 1u);
            EXPECT_EQ(r.report, kInjectedLoadExtReport);
            return;
        }
    }
    FAIL() << "injected bug not caught in 1000 programs";
}

TEST(Oracle, TimingInvariantsHoldOnInstrumentedPrograms)
{
    GenParams gen;
    gen.instrument = true;
    gen.allowCalls = false;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const GeneratedProgram g = generate(seed, gen);
        const OracleResult r = runTimingOracle(g);
        EXPECT_TRUE(r.ok) << "seed " << seed << "\n" << r.report;
        EXPECT_GE(r.subtasks, 1) << "seed " << seed;
    }
}

TEST(Corpus, ReproFormatRoundTrips)
{
    ReproCase r;
    r.seed = 987654321;
    r.profile = "memory";
    r.note = "final r5 mismatch";
    r.source = "        lh r5, 2(r9)\n        halt\n";
    const ReproCase back = parseRepro(formatRepro(r));
    EXPECT_EQ(back.seed, r.seed);
    EXPECT_EQ(back.profile, r.profile);
    EXPECT_EQ(back.note, r.note);
    EXPECT_EQ(back.source, r.source);
    // Idempotent: formatting the parse reproduces the file.
    EXPECT_EQ(formatRepro(back), formatRepro(r));
}

TEST(Corpus, EveryCheckedInReproReplaysEquivalent)
{
    // Regression replay: every repro in tests/corpus/ must assemble
    // and run equivalently on the current simulator. (Files recording
    // a fixed candidate bug still guard against its return: they
    // diverge again the moment the bug reappears.)
    const std::filesystem::path dir = VISA_CORPUS_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    int replayed = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".s")
            continue;
        const ReproCase rc = loadRepro(entry.path().string());
        EXPECT_FALSE(rc.source.empty()) << entry.path();
        const Program prog = assemble(rc.source);
        const LockstepResult r = runLockstep(prog);
        EXPECT_TRUE(r.equivalent)
            << entry.path() << " (seed " << rc.seed << ", note: "
            << rc.note << ")\n" << r.report;
        ++replayed;
    }
    EXPECT_GE(replayed, 4) << "corpus unexpectedly small in " << dir;
}

TEST(Corpus, SignExtensionReprosCatchTheInjectedBug)
{
    // The subword sign-extension repros were minimized from the
    // injected-bug hunt; they must still detect that bug class.
    const std::filesystem::path dir = VISA_CORPUS_DIR;
    const LockstepOptions buggy = buggyOptions();
    int detected = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".s")
            continue;
        const ReproCase rc = loadRepro(entry.path().string());
        if (rc.note.find("sign-exten") == std::string::npos)
            continue;
        const LockstepResult r =
            runLockstep(assemble(rc.source), buggy);
        EXPECT_TRUE(r.diverged) << entry.path();
        ++detected;
    }
    EXPECT_GE(detected, 1);
}

} // anonymous namespace
} // namespace visa
