/**
 * @file
 * Output pins for the machines built outside SimBuilder's single-core
 * Sim: the complex-core PET profiler, the D-miss profiler, the slack
 * scheduler's background core, the timing oracle and the multi-core
 * chip's free run. Each row folds everything the call answers with
 * into one FNV-1a digest, so a change in how any of these machines is
 * wired (construction order, reset, block-cache knob, image, bus
 * attachment) shows up as a named row. On a deliberate change, the
 * failure message prints the new digest to paste below.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "core/concurrency.hh"
#include "core/experiment.hh"
#include "isa/assembler.hh"
#include "sim/builder.hh"
#include "tests/test_util.hh"
#include "verify/oracle.hh"
#include "verify/progen.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

using test::Fnv1a;
using verify::GenProfile;

struct KernelRow
{
    const char *name;
    std::uint64_t want;
};

/** profileComplexAets at margins 1.0 and 1.03, at 1000 and 600 MHz. */
std::uint64_t
complexAetDigest(const Workload &wl)
{
    Fnv1a h;
    for (double margin : {1.0, 1.03}) {
        for (MHz f : {1000u, 600u}) {
            h.real(margin);
            h.integer(f);
            for (std::uint64_t aet :
                 profileComplexAets(wl.program, wl.numSubtasks, margin, f))
                h.integer(static_cast<std::int64_t>(aet));
            h.text("|");
        }
    }
    return h.value();
}

const KernelRow complexAetRows[] = {
    {"adpcm", 0xe50efc6e8118df09ULL},
    {"cnt", 0x4cab630998b01f99ULL},
    {"crc", 0x7c8057142727b45fULL},
    {"fft", 0x980e5ea025588a19ULL},
    {"fir", 0x9a9d2eefa88c51d0ULL},
    {"jfdctint", 0x4d73e418304ecc95ULL},
    {"lms", 0x6bc9942d1df27ef0ULL},
    {"mm", 0x3a4a08a3b9b8ac2fULL},
    {"srt", 0xc478fe06bb5ccbcfULL},
};

TEST(RigPin, ComplexAetProfiles)
{
    for (const KernelRow &row : complexAetRows) {
        const std::uint64_t have = complexAetDigest(makeWorkload(row.name));
        EXPECT_EQ(have, row.want)
            << row.name << ": new digest 0x" << std::hex << have << "ULL";
    }
}

/** The 24 instrumented generated programs the WCET and EQ 4 pins use:
 *  four profiles x seeds 1-6, calls off. */
template <typename Fn>
void
forEachInstrumentedProgram(Fn &&fn)
{
    for (GenProfile p : {GenProfile::Alu, GenProfile::Branch,
                         GenProfile::Memory, GenProfile::Mixed}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            verify::GenParams params;
            params.profile = p;
            params.instrument = true;
            params.allowCalls = false;
            fn(verify::generate(seed, params));
        }
    }
}

void
foldMisses(Fnv1a &h, const Program &prog)
{
    const DMissProfile d = profileDataMisses(prog);
    h.real(d.safetyFactor);
    for (std::uint64_t m : d.missesPerSubtask)
        h.integer(static_cast<std::int64_t>(m));
    h.text("|");
}

TEST(RigPin, DataMissCounts)
{
    Fnv1a kernels;
    for (const std::string &name : clabNames())
        foldMisses(kernels, makeWorkload(name).program);
    EXPECT_EQ(kernels.value(), 0xe425eadbe67c3c01ULL)
        << "C-lab kernels: new digest 0x" << std::hex << kernels.value()
        << "ULL";

    Fnv1a generated;
    forEachInstrumentedProgram([&](const verify::GeneratedProgram &g) {
        foldMisses(generated, g.program);
    });
    EXPECT_EQ(generated.value(), 0x54f3fc49e9d7b36bULL)
        << "generated programs: new digest 0x" << std::hex
        << generated.value() << "ULL";
}

TEST(RigPin, SlackSchedulerBackground)
{
    const KernelAnalysis a("cnt");
    const Workload &wl = a.wl;
    const Program bg = assemble(R"(
        addi r4, r0, 500
bg:     add  r5, r5, r4
        subi r4, r4, 1
        .loopbound 500
        bgtz r4, bg
        halt
)");
    RuntimeConfig cfg;
    cfg.deadlineSeconds = a.wcet.taskSeconds(600);
    cfg.ovhdSeconds = experimentOvhdSeconds;
    auto sim = SimBuilder()
                   .program(wl.program)
                   .runtime(RuntimeKind::Visa, a.wcet, a.dvs, cfg)
                   .build();
    sim->runtime().pets().seed(
        profileComplexAets(wl.program, wl.numSubtasks));
    SlackScheduler sched(sim->runtime(), bg, a.dvs);

    Fnv1a h;
    for (int p = 0; p < 10; ++p) {
        const TaskStats ts = sched.runPeriod();
        h.u64(std::bit_cast<std::uint64_t>(ts.completionSeconds));
        h.integer(ts.deadlineMet);
        h.integer(ts.missedCheckpoint);
        h.integer(ts.missedSubtask);
        h.integer(ts.fSpec);
        h.integer(ts.fRec);
        h.integer(ts.speculating);
        h.integer(static_cast<std::int64_t>(ts.retired));
        h.integer(ts.checksum);
        h.integer(ts.checksumReported);
        const BackgroundStats &b = sched.background();
        h.integer(static_cast<std::int64_t>(b.instructionsRetired));
        h.integer(static_cast<std::int64_t>(b.cyclesGranted));
        h.integer(b.completions);
        h.u64(std::bit_cast<std::uint64_t>(b.slackSeconds));
        h.text("|");
    }
    EXPECT_EQ(h.value(), 0x8557b583dc71c2e8ULL)
        << "new digest 0x" << std::hex << h.value() << "ULL";
}

TEST(RigPin, TimingOracle)
{
    Fnv1a h;
    forEachInstrumentedProgram([&](const verify::GeneratedProgram &g) {
        const verify::OracleResult r = verify::runTimingOracle(g);
        h.integer(r.ok);
        h.integer(r.subtasks);
        h.text(r.report);
        h.text("|");
    });
    EXPECT_EQ(h.value(), 0x5ad1aa697931676dULL)
        << "new digest 0x" << std::hex << h.value() << "ULL";
}

/** Chip::runAll on mm: every core's cycles and retired count, then
 *  the chip.bus stats group as dumped. */
std::uint64_t
chipRunDigest(int cores)
{
    auto c = SimBuilder()
                 .workload("mm")
                 .cpu(CpuKind::Complex)
                 .cores(cores)
                 .buildChip();
    const chip::Chip::RunAllResult r = c->runAll(20'000'000'000ULL);
    Fnv1a h;
    h.integer(r.allHalted);
    h.integer(static_cast<std::int64_t>(r.retired));
    for (int i = 0; i < c->numCores(); ++i) {
        h.integer(static_cast<std::int64_t>(c->core(i).ooo().cycles()));
        h.integer(static_cast<std::int64_t>(c->core(i).ooo().retired()));
    }
    StatSet set;
    c->buildStats(set);
    std::ostringstream os;
    set.dump(os);
    h.text(os.str());
    return h.value();
}

TEST(RigPin, ChipRunAll)
{
    const struct
    {
        int cores;
        std::uint64_t want;
    } rows[] = {{2, 0xcbd44e1507c7e7efULL},
                {4, 0x91b9683125573669ULL}};
    for (const auto &row : rows) {
        const std::uint64_t have = chipRunDigest(row.cores);
        EXPECT_EQ(have, row.want) << row.cores << " cores: new digest 0x"
                                  << std::hex << have << "ULL";
    }
}

} // anonymous namespace
} // namespace visa
