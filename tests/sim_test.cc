/**
 * @file
 * Tests for the simulation substrate: the statistics package, debug
 * flags, error channels, the tools' numeric flag parsers, and the
 * CPUs' statistics dumps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "tests/test_util.hh"

namespace visa
{
namespace
{

TEST(StatsTest, ScalarArithmetic)
{
    StatGroup g("test");
    auto &s = g.scalar("counter", "a counter");
    ++s;
    s += 10;
    EXPECT_EQ(s.value(), 11u);
    s.set(5);
    EXPECT_EQ(s.value(), 5u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(StatsTest, ScalarRegistrationIsStable)
{
    StatGroup g("test");
    auto &a = g.scalar("x");
    a += 3;
    auto &b = g.scalar("x");    // same stat
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);
}

TEST(StatsTest, DistributionSampling)
{
    StatGroup g("test");
    auto &d = g.distribution("lat");
    d.init(0, 100, 10);
    for (std::uint64_t v : {5u, 15u, 15u, 95u, 200u})
        d.sample(v);
    EXPECT_EQ(d.samples(), 5u);
    EXPECT_EQ(d.minSeen(), 5u);
    EXPECT_EQ(d.maxSeen(), 200u);
    EXPECT_DOUBLE_EQ(d.mean(), 66.0);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.buckets()[1], 2u);
    EXPECT_EQ(d.buckets()[9], 1u);    // 95
    // Overflow clamps into the last bucket.
    EXPECT_EQ(d.buckets().back(), 1u);
    d.reset();
    EXPECT_EQ(d.samples(), 0u);
}

TEST(StatsTest, FormulaAndDump)
{
    StatGroup g("cpu0");
    auto &insts = g.scalar("insts", "retired");
    auto &cycles = g.scalar("cycles");
    insts.set(300);
    cycles.set(100);
    g.formula("ipc",
              [&]() {
                  return static_cast<double>(insts.value()) /
                         static_cast<double>(cycles.value());
              },
              "instructions per cycle");
    std::ostringstream os;
    g.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("cpu0.insts 300 # retired"), std::string::npos);
    EXPECT_NE(out.find("cpu0.ipc 3"), std::string::npos);
}

TEST(StatsTest, ResetAllClearsEverything)
{
    StatGroup g("g");
    g.scalar("a") += 7;
    auto &d = g.distribution("d");
    d.init(0, 10, 1);
    d.sample(3);
    g.resetAll();
    EXPECT_EQ(g.scalar("a").value(), 0u);
    EXPECT_EQ(g.distribution("d").samples(), 0u);
}

TEST(DebugTest, FlagsToggle)
{
    EXPECT_FALSE(Debug::enabled("Fetch"));
    Debug::enable("Fetch");
    EXPECT_TRUE(Debug::enabled("Fetch"));
    Debug::disable("Fetch");
    EXPECT_FALSE(Debug::enabled("Fetch"));
}

TEST(LoggingTest, ErrorChannels)
{
    EXPECT_THROW(fatal("user error %d", 7), FatalError);
    EXPECT_THROW(panic("bug %s", "here"), PanicError);
    try {
        fatal("value=%d", 42);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value=42"),
                  std::string::npos);
    }
}

TEST(CliTest, IntegerFlagsAreWholeTokensInRange)
{
    EXPECT_EQ(parseIntFlag("--tasks", "20", 1), 20);
    EXPECT_EQ(parseIntFlag("--affinity", "-1", -1), -1);
    EXPECT_EQ(parseIntFlag<MHz>("--freq", "4294967295", 1), 4294967295u);
    EXPECT_EQ(
        parseIntFlag<std::uint64_t>("--seed", "18446744073709551615"),
        ~std::uint64_t{0});
    for (const char *bad :
         {"", "abc", "2x", " 2", "2 ", "+2", "0x10", "1e3", "2.0"})
        EXPECT_THROW(parseIntFlag("--jobs", bad, 1), FatalError) << bad;
    EXPECT_THROW(parseIntFlag("--tasks", "-5", 1), FatalError);
    EXPECT_THROW(parseIntFlag("--tasks", "0", 1), FatalError);
    EXPECT_THROW(parseIntFlag("--cores", "65", 1, 64), FatalError);
    EXPECT_THROW(parseIntFlag("--tasks", "2147483648", 1), FatalError);
    EXPECT_THROW(parseIntFlag<MHz>("--freq", "4294967296", 1), FatalError);
    EXPECT_THROW(parseIntFlag<std::uint64_t>("--oracle-every", "-1"),
                 FatalError);
    EXPECT_THROW(
        parseIntFlag<std::uint64_t>("--seed", "18446744073709551616"),
        FatalError);
    try {
        parseIntFlag("--jobs", "2x", 1);
        ADD_FAILURE() << "2x accepted";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "--jobs must be an integer in [1, 2147483647], not "
                     "'2x'");
    }
}

TEST(CliTest, DoubleFlagsAreWholeFiniteNumbers)
{
    EXPECT_EQ(parseDoubleFlag("--util", "0.6"), 0.6);
    EXPECT_EQ(parseDoubleFlag("--deadline", "1e-3"), 1e-3);
    // Ranges stay with the consumer: makeTaskSetDefs rejects it.
    EXPECT_EQ(parseDoubleFlag("--util", "-1"), -1.0);
    for (const char *bad :
         {"", "abc", "1e-3x", "0.6 ", "inf", "-inf", "nan", "1e400"})
        EXPECT_THROW(parseDoubleFlag("--deadline", bad), FatalError)
            << bad;
}

TEST(CpuStatsTest, SimpleCpuDumpHasCoreCounters)
{
    test::SimpleMachine m(R"(
        addi r4, r0, 20
loop:   subi r4, r4, 1
        bgtz r4, loop
        halt
    )");
    m.run();
    std::ostringstream os;
    m.cpu->dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("simple.cycles"), std::string::npos);
    EXPECT_NE(out.find("simple.instructions 42"), std::string::npos);
    EXPECT_NE(out.find("simple.ipc"), std::string::npos);
    EXPECT_NE(out.find("simple.icache_misses 1"), std::string::npos);
    EXPECT_NE(out.find("simple.activity_fu 42"), std::string::npos);
}

TEST(CpuStatsTest, OooCpuDumpAddsBranchAndMode)
{
    test::OooMachine m(R"(
        addi r4, r0, 20
loop:   subi r4, r4, 1
        bgtz r4, loop
        halt
    )");
    m.run();
    std::ostringstream os;
    m.cpu->dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("complex.cycles"), std::string::npos);
    EXPECT_NE(out.find("complex.branch_mispredicts"), std::string::npos);
    EXPECT_NE(out.find("complex.mode_simple 0"), std::string::npos);
    m.cpu->switchToSimple();
    std::ostringstream os2;
    m.cpu->dumpStats(os2);
    EXPECT_NE(os2.str().find("complex.mode_simple 1"),
              std::string::npos);
}

} // anonymous namespace
} // namespace visa
