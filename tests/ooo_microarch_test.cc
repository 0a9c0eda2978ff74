/**
 * @file
 * Targeted microarchitectural tests of the complex pipeline's timing
 * model: structure capacity backpressure (ROB/IQ/LSQ), load/store
 * ordering, MSHR limits, cache-port contention, front-end width, and
 * the memory-contention channel the paper's §3.2 contrasts with the
 * VISA's single outstanding request.
 */

#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.hh"

namespace visa
{
namespace
{

using test::OooMachine;

/** Run once to warm the caches, then measure a second task. */
Cycles
warmCycles(OooMachine &m)
{
    m.run();
    m.cpu->resetForTask();
    m.run();
    return m.cpu->cycles();
}

/** Build N copies of @p line followed by halt. */
std::string
repeated(const std::string &line, int n, const std::string &prologue = "")
{
    std::string src = prologue;
    for (int i = 0; i < n; ++i)
        src += line + "\n";
    src += "        halt\n";
    return src;
}

TEST(OooStructures, IssueWidthBoundsIpc)
{
    // 400 independent single-cycle instructions: IPC can approach but
    // never exceed the 4-wide issue width.
    OooMachine m(repeated("        add r5, r6, r7", 400));
    Cycles warm = warmCycles(m);
    double ipc = static_cast<double>(m.cpu->retired()) /
                 static_cast<double>(warm);
    EXPECT_LE(ipc, 4.0);
    EXPECT_GT(ipc, 2.0);
}

TEST(OooStructures, DependentChainSerializes)
{
    // A fully dependent chain runs at IPC <= 1 no matter the width.
    OooMachine chain(repeated("        add r5, r5, r6", 300));
    OooMachine par(repeated("        add r5, r6, r7", 300));
    Cycles chain_w = warmCycles(chain);
    Cycles par_w = warmCycles(par);
    EXPECT_GT(chain_w, par_w * 2);
}

TEST(OooStructures, LoadsWaitForOlderStoreAddresses)
{
    // A load cannot issue before an older store's address is known;
    // with the store address dependent on a long divide, the load is
    // delayed despite having ready operands.
    const char *slow_store = R"(
        la  r4, buf
        div r5, r6, r7          # 35 cycles
        add r5, r5, r4          # store address depends on the divide
        sw  r8, 0(r5)
        lw  r9, 64(r4)          # younger load, ready immediately
        halt
        .data
buf:    .space 256
    )";
    const char *fast_store = R"(
        la  r4, buf
        div r5, r6, r7
        add r10, r5, r4         # divide result not used by the store
        sw  r8, 0(r4)
        lw  r9, 64(r4)
        halt
        .data
buf:    .space 256
    )";
    OooMachine slow(slow_store), fast(fast_store);
    slow.run();
    fast.run();
    // In both versions the divide must retire before HALT, so compare
    // the loads' completion indirectly via total cycles: the slow
    // version additionally serializes store-address -> load issue.
    EXPECT_GE(slow.cpu->cycles(), fast.cpu->cycles());
}

TEST(OooStructures, StoreToLoadForwardingBeatsCacheMiss)
{
    // A load that hits an in-flight older store forwards from the LSQ
    // and never touches the (cold) cache line.
    const char *forwarded = R"(
        la  r4, buf
        sw  r5, 0(r4)
        lw  r6, 0(r4)
        halt
        .data
buf:    .space 64
    )";
    const char *missing = R"(
        la  r4, buf
        sw  r5, 64(r4)
        lw  r6, 0(r4)           # different line: cold miss
        halt
        .data
buf:    .space 128
    )";
    OooMachine f(forwarded), m(missing);
    f.run();
    m.run();
    EXPECT_LT(f.cpu->cycles() + 50, m.cpu->cycles());
}

TEST(OooStructures, MlpBoundedByMshrs)
{
    // More independent cold misses than MSHRs: the ninth muss wait.
    // Compare 8 misses (fits maxOutstanding=8) vs 16 misses.
    auto build = [](int n) {
        std::string src = "        la r4, buf\n";
        for (int i = 0; i < n; ++i)
            src += "        lw r" + std::to_string(5 + (i % 20)) +
                   ", " + std::to_string(i * 256) + "(r4)\n";
        src += "        halt\n        .data\nbuf:    .space 8192\n";
        return src;
    };
    OooMachine eight(build(8)), sixteen(build(16));
    eight.run();
    sixteen.run();
    // Doubling the misses must cost noticeably more than doubling a
    // fully-overlapped burst would (channel occupancy: 30 cycles each
    // at 1 GHz).
    EXPECT_GT(sixteen.cpu->cycles(), eight.cpu->cycles() + 8 * 30 - 1);
}

TEST(OooStructures, MemoryContentionExceedsVisaStall)
{
    // §3.2: "memory stall time can be worse than the stall time
    // indicated in Table 1, due to contention among multiple
    // outstanding memory requests." One isolated miss resolves in
    // ~100 cycles; a burst's later misses take longer than that.
    auto build = [](int n) {
        std::string src = "        la r4, buf\n";
        for (int i = 0; i < n; ++i)
            src += "        lw r" + std::to_string(5 + i) + ", " +
                   std::to_string(i * 256) + "(r4)\n";
        // Serialize completion: consume the last load.
        src += "        add r3, r" + std::to_string(5 + n - 1) +
               ", r0\n";
        src += "        halt\n        .data\nbuf:    .space 4096\n";
        return src;
    };
    OooMachine one(build(1)), six(build(6));
    one.run();
    six.run();
    Cycles one_t = one.cpu->cycles();
    Cycles six_t = six.cpu->cycles();
    // Perfect overlap would finish the burst within ~5 cycles of the
    // single miss; channel occupancy forces 30 cycles per extra miss.
    EXPECT_GT(six_t, one_t + 5 * 30 - 10);
}

TEST(OooStructures, RobCapacityLimitsRunahead)
{
    // A long-latency head (divide chain) with >128 independent
    // instructions behind it: the window fills and fetch stalls, so
    // adding instructions beyond the ROB size costs real time.
    auto build = [](int fill) {
        std::string src;
        src += "        div r2, r3, r4\n";
        src += "        div r2, r2, r4\n";    // dependent: ~70 cycles
        for (int i = 0; i < fill; ++i)
            src += "        add r5, r6, r7\n";
        src += "        add r8, r2, r0\n";
        src += "        halt\n";
        return src;
    };
    OooMachine small(build(60)), big(build(250));
    small.run();
    big.run();
    // 60 fillers hide entirely under the divides; 250 exceed the
    // 128-entry window, so the extra 190 cannot all hide.
    EXPECT_GT(big.cpu->cycles(), small.cpu->cycles() + 20);
}

TEST(OooStructures, TakenBranchLimitsFetchBlock)
{
    // A chain of always-taken branches fetches one block per cycle;
    // straight-line code of the same instruction count fetches four
    // per cycle.
    std::string jumpy;
    for (int i = 0; i < 100; ++i) {
        jumpy += "        j t" + std::to_string(i) + "\n";
        jumpy += "t" + std::to_string(i) + ":\n";
    }
    jumpy += "        halt\n";
    OooMachine j(jumpy);
    OooMachine s(repeated("        add r5, r6, r7", 100));
    j.run();
    s.run();
    EXPECT_GT(j.cpu->cycles(), s.cpu->cycles() + 40);
}

TEST(OooStructures, IndirectPredictorLearnsStableTarget)
{
    // A loop calling through a register: the first pass stalls fetch;
    // subsequent passes are predicted.
    const char *src = R"(
        .entry main
fn:     add r5, r5, r6
        jr  ra
main:   la  r9, fn
        addi r4, r0, 50
loop:   jalr r31, r9
        subi r4, r4, 1
        .loopbound 50
        bgtz r4, loop
        halt
    )";
    OooMachine m(src);
    m.run();
    // 50 jalr + 50 jr: far fewer mispredictions than indirect jumps.
    EXPECT_LT(m.cpu->branchMispredicts(), 25u);
    EXPECT_EQ(m.intReg(5), 0u + 50u * m.intReg(6));
}

TEST(OooStructures, WrongPathDoesNotPolluteCaches)
{
    // Perfect squash (DESIGN.md): a mispredicted branch around a load
    // must not install the wrong-path line.
    const char *src = R"(
        la  r4, buf
        addi r5, r0, 1
        beq r5, r0, skip      # never taken; forward branch
        j after
skip:   lw  r6, 512(r4)       # never executed
after:  halt
        .data
buf:    .space 1024
    )";
    OooMachine m(src);
    m.run();
    EXPECT_FALSE(m.cpu->dcache().probe(m.prog.symbol("buf") + 512));
}

/**
 * A fault port that injects nothing and records what it is offered:
 * the pc of every executed sequence number and every (seq, cycle)
 * issue offer.
 */
class OfferLog final : public FaultPort
{
  public:
    void
    onExecute(ExecCore &, MainMemory &, ExecInfo &info, std::uint64_t seq,
              Cycles) override
    {
        pcOf[seq] = info.pc;
    }

    Cycles
    onIssueReady(std::uint64_t seq, Cycles cycle) override
    {
        offers.emplace_back(seq, cycle);
        return 0;
    }

    /** The cycles at which the instruction at @p pc was offered. */
    std::vector<Cycles>
    offersAt(Addr pc) const
    {
        std::vector<Cycles> out;
        for (const auto &[seq, cycle] : offers)
            if (pcOf.at(seq) == pc)
                out.push_back(cycle);
        return out;
    }

    std::map<std::uint64_t, Addr> pcOf;
    std::vector<std::pair<std::uint64_t, Cycles>> offers;
};

TEST(OooStructures, StoreBlockedLoadOfferedWhenParkedAndReleased)
{
    // A load that waits behind an older unissued store is offered to
    // the fault port on the scan that parks it and again from the scan
    // that releases it, never on the cycles in between
    // (cpu/fault_port.hh). Here the store's data comes from a 35-cycle
    // divide while the load's address is ready almost at once.
    const char *src = R"(
        la  r4, buf
        div r5, r6, r7          # 35 cycles
st:     sw  r5, 0(r4)           # store data waits on the divide
ld:     lw  r9, 64(r4)          # younger load of another word
        halt
        .data
buf:    .space 128
    )";
    OooMachine m(src);
    OfferLog log;
    m.cpu->setFaultPort(&log);
    m.run();
    const std::vector<Cycles> store = log.offersAt(m.prog.symbol("st"));
    const std::vector<Cycles> load = log.offersAt(m.prog.symbol("ld"));
    ASSERT_EQ(store.size(), 1u);    // issues on its first offer
    ASSERT_EQ(load.size(), 2u);
    // Parked on its first offer, while the divide still runs ...
    EXPECT_GE(store[0], load[0] + 30);
    // ... and offered again in the scan in which the store issues.
    EXPECT_EQ(load[1], store[0]);
}

} // anonymous namespace
} // namespace visa
