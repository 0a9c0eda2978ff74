/**
 * @file
 * Memory-system tests: sparse memory, cache geometry/LRU/flush, memory
 * controller contention, and platform devices.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "isa/assembler.hh"
#include "mem/cache.hh"
#include "mem/memctrl.hh"
#include "mem/memory.hh"
#include "mem/platform.hh"
#include "sim/logging.hh"

namespace visa
{
namespace
{

TEST(MainMemoryTest, ReadWriteWidths)
{
    MainMemory m;
    m.write(0x1000, 0x11223344, 4);
    EXPECT_EQ(m.read(0x1000, 4), 0x11223344u);
    EXPECT_EQ(m.read(0x1000, 1), 0x44u);    // little-endian
    EXPECT_EQ(m.read(0x1001, 2), 0x2233u);
    m.write(0x1002, 0xAB, 1);
    EXPECT_EQ(m.read(0x1000, 4), 0x11AB3344u);
}

TEST(MainMemoryTest, CrossPageAccess)
{
    MainMemory m;
    m.write(0x1FFE, 0xDDCCBBAA, 4);    // spans a 4 KB page boundary
    EXPECT_EQ(m.read(0x1FFE, 4), 0xDDCCBBAAu);
    EXPECT_EQ(m.read(0x2000, 1), 0xCCu);
}

TEST(MainMemoryTest, UntouchedMemoryReadsZero)
{
    MainMemory m;
    EXPECT_EQ(m.read(0xABCDE, 8), 0u);
}

TEST(MainMemoryTest, DoubleRoundTrip)
{
    MainMemory m;
    m.writeDouble(0x4000, -123.456);
    EXPECT_DOUBLE_EQ(m.readDouble(0x4000), -123.456);
}

// ---- safety net for the page-split memcpy fast path ----

TEST(MainMemoryTest, EveryWidthStraddlesPageBoundary)
{
    // Writes and reads of every width, placed so the access straddles
    // the 4 KB page boundary at every possible split point.
    for (int bytes : {2, 4, 8}) {
        for (int split = 1; split < bytes; ++split) {
            MainMemory m;
            const Addr base = 0x3000 - static_cast<Addr>(split);
            const std::uint64_t val = 0x1122334455667788ULL >>
                                      (8 * (8 - bytes));
            m.write(base, val, bytes);
            EXPECT_EQ(m.read(base, bytes), val)
                << bytes << " bytes split at " << split;
            // Byte-wise readback proves little-endian placement across
            // the boundary.
            for (int i = 0; i < bytes; ++i)
                EXPECT_EQ(m.read(base + static_cast<Addr>(i), 1),
                          (val >> (8 * i)) & 0xFF);
        }
    }
}

TEST(MainMemoryTest, DoubleStraddlesPageBoundary)
{
    MainMemory m;
    m.writeDouble(0x1FFC, 3.14159265358979);    // 4 bytes on each page
    EXPECT_DOUBLE_EQ(m.readDouble(0x1FFC), 3.14159265358979);
}

TEST(MainMemoryTest, UnmappedDoubleAndPartialPageReadZero)
{
    MainMemory m;
    EXPECT_DOUBLE_EQ(m.readDouble(0x9000), 0.0);
    // One mapped page next to an unmapped one: the straddling read
    // must see zeros for the unmapped half.
    m.write(0x5FFC, 0xAABBCCDD, 4);
    EXPECT_EQ(m.read(0x5FFC, 8), 0xAABBCCDDull);
}

TEST(MainMemoryTest, LittleEndianByteOrder)
{
    MainMemory m;
    m.write(0x100, 0x0102030405060708ULL, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(m.read(0x100 + static_cast<Addr>(i), 1),
                  static_cast<std::uint64_t>(8 - i));
    m.write(0x200, 0xBEEF, 2);
    EXPECT_EQ(m.read(0x200, 1), 0xEFu);
    EXPECT_EQ(m.read(0x201, 1), 0xBEu);
}

TEST(MainMemoryTest, BulkCopyRoundTripAcrossPages)
{
    MainMemory m;
    std::vector<std::uint8_t> src(10000);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 37 + 11);
    m.writeBytes(0x0FF0, src.data(), src.size());    // spans 3+ pages
    for (std::size_t i = 0; i < src.size(); ++i)
        ASSERT_EQ(m.read(0x0FF0 + static_cast<Addr>(i), 1), src[i]) << i;
    EXPECT_EQ(m.read(0x0FF0 + static_cast<Addr>(src.size()), 1), 0u);
}

TEST(MainMemoryTest, ClearDropsAllPages)
{
    MainMemory m;
    m.write(0x1FFE, 0x12345678, 4);    // straddle: touches two pages
    m.clear();
    EXPECT_EQ(m.read(0x1FFE, 4), 0u);
    // Memory is usable again after clear (page cache re-primed).
    m.write(0x1FFE, 0x9ABCDEF0, 4);
    EXPECT_EQ(m.read(0x1FFE, 4), 0x9ABCDEF0u);
}

TEST(MainMemoryTest, LoadProgramPlacesTextAndData)
{
    Program p = assemble(R"(
        addi r4, r0, 7
        halt
        .data
x:      .word 0x1234
    )");
    MainMemory m;
    m.loadProgram(p);
    EXPECT_EQ(m.readWord(p.textBase), p.words[0]);
    EXPECT_EQ(m.readWord(p.symbol("x")), 0x1234u);
}

TEST(CacheTest, VisaGeometry)
{
    Cache c({"c", 64 * 1024, 4, 64});
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.assoc(), 4u);
}

TEST(CacheTest, HitAfterMiss)
{
    Cache c({"c", 64 * 1024, 4, 64});
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103F, false));    // same 64B block
    EXPECT_FALSE(c.access(0x1040, false));   // next block
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheTest, LruEviction)
{
    Cache c({"c", 1024, 2, 64});    // 8 sets, 2 ways
    // Three blocks mapping to set 0: stride = 8 sets * 64 B = 512.
    EXPECT_FALSE(c.access(0, false));
    EXPECT_FALSE(c.access(512, false));
    EXPECT_TRUE(c.access(0, false));        // refresh block 0
    EXPECT_FALSE(c.access(1024, false));    // evicts 512 (LRU)
    EXPECT_TRUE(c.access(0, false));
    EXPECT_FALSE(c.access(512, false));     // was evicted
}

TEST(CacheTest, ProbeDoesNotDisturbState)
{
    Cache c({"c", 1024, 2, 64});
    c.access(0, false);
    c.access(512, false);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(1024));
    // probe must not refresh LRU: 0 is still LRU-older than 512 after
    // the probes? (0 accessed first, so 0 is LRU) -> inserting 1024
    // evicts 0.
    c.access(1024, false);
    EXPECT_FALSE(c.probe(0));
    EXPECT_TRUE(c.probe(512));
}

TEST(CacheTest, EvictedBlockMissesEvenWhenMostRecentlyHit)
{
    // Regression test for the one-entry MRU filter in access(): a
    // block that was the most recent hit and is then evicted must miss
    // on its next access (the filter must not report a phantom hit).
    Cache c({"c", 1024, 2, 64});    // 8 sets, 2 ways
    EXPECT_FALSE(c.access(0, false));
    EXPECT_TRUE(c.access(0, false));        // block 0 is the MRU hit
    EXPECT_FALSE(c.access(512, false));
    EXPECT_FALSE(c.access(1024, false));    // evicts block 0 (LRU)
    EXPECT_FALSE(c.access(0, false));       // must be a genuine miss
    EXPECT_EQ(c.misses(), 4u);
}

TEST(CacheTest, FlushInvalidatesEverything)
{
    Cache c({"c", 64 * 1024, 4, 64});
    c.access(0x1000, false);
    c.access(0x2000, true);
    c.flush();
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(CacheTest, BadGeometryRejected)
{
    EXPECT_THROW(Cache({"c", 1000, 4, 64}), FatalError);
    EXPECT_THROW(Cache({"c", 1024, 3, 64}), FatalError);
}

TEST(MemCtrlTest, StallCyclesScaleWithFrequency)
{
    MemController mc;
    EXPECT_EQ(mc.stallCycles(1000), 100u);    // 100 ns at 1 GHz
    EXPECT_EQ(mc.stallCycles(100), 10u);
    EXPECT_EQ(mc.stallCycles(250), 25u);
    EXPECT_EQ(mc.stallCycles(333), 34u);      // ceil(33.3)
}

TEST(MemCtrlTest, ExclusiveAccessHasNoContention)
{
    MemController mc;
    EXPECT_EQ(mc.scheduleExclusive(1000, 1000), 1100u);
    EXPECT_EQ(mc.scheduleExclusive(1000, 1000), 1100u);    // stateless
}

TEST(MemCtrlTest, ChannelContentionDelaysBursts)
{
    MemController mc;
    Cycles c1 = mc.schedule(0, 1000);
    Cycles c2 = mc.schedule(0, 1000);
    Cycles c3 = mc.schedule(0, 1000);
    EXPECT_EQ(c1, 100u);
    EXPECT_EQ(c2, 130u);    // 30 ns occupancy delay
    EXPECT_EQ(c3, 160u);
    // A later isolated request sees no contention.
    mc.reset();
    EXPECT_EQ(mc.schedule(5000, 1000), 5100u);
}

TEST(PlatformTest, WatchdogStoreAccumulates)
{
    Platform p;
    p.store(mmio::watchdog, 100);
    p.store(mmio::watchdog, 50);
    EXPECT_EQ(p.watchdogValue(), 150);
    EXPECT_TRUE(p.watchdogArmed());
}

TEST(PlatformTest, TickNExpiryOffset)
{
    Platform p;
    p.maskWatchdog(false);
    p.store(mmio::watchdog, 10);
    auto r = p.tickN(4);
    EXPECT_FALSE(r.expired);
    r = p.tickN(20);
    EXPECT_TRUE(r.expired);
    EXPECT_EQ(r.offset, 6u);    // expired 6 cycles into the span
    EXPECT_EQ(p.cycleCounter(), 24u);
}

TEST(PlatformTest, SingleTickMatchesTickN)
{
    Platform a, b;
    a.maskWatchdog(false);
    b.maskWatchdog(false);
    a.store(mmio::watchdog, 5);
    b.store(mmio::watchdog, 5);
    int a_expired_at = -1;
    for (int i = 1; i <= 10; ++i)
        if (a.tick() && a_expired_at < 0)
            a_expired_at = i;
    auto r = b.tickN(10);
    EXPECT_TRUE(r.expired);
    EXPECT_EQ(static_cast<int>(r.offset), a_expired_at);
    EXPECT_EQ(a.cycleCounter(), b.cycleCounter());
}

TEST(PlatformTest, FrequencyRegisters)
{
    Platform p;
    p.setCurrentFreq(450);
    p.setRecoveryFreq(900);
    EXPECT_EQ(p.load(mmio::currentFreq), 450u);
    EXPECT_EQ(p.load(mmio::recoveryFreq), 900u);
}

TEST(PlatformTest, ConsoleOutput)
{
    Platform p;
    for (char ch : std::string("hi"))
        p.store(mmio::putChar, static_cast<Word>(ch));
    EXPECT_EQ(p.consoleOutput(), "hi");
}

TEST(PlatformTest, ResetClearsState)
{
    Platform p;
    p.store(mmio::watchdog, 5);
    p.store(mmio::checksum, 1);
    p.tickN(3);
    p.reset();
    EXPECT_FALSE(p.watchdogArmed());
    EXPECT_FALSE(p.checksumReported());
    EXPECT_EQ(p.cycleCounter(), 0u);
}

} // anonymous namespace
} // namespace visa
