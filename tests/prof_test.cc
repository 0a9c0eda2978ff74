/**
 * @file
 * Block-granular profiler tests (sim/prof): install/uninstall gating,
 * the equivalence of the cached batch path, the uncached per-step
 * path, and the observer path (identical block/edge profiles and
 * architectural results), cycle-attribution reconciliation on both
 * timing pipelines, checkpoint slack joins against the run-time
 * system's own AET counter, bound-side attribution summing exactly to
 * the WCET table, coverage-map monotonicity, profile-JSON
 * well-formedness, and byte-identical profiles across thread-pool
 * widths.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "sim/builder.hh"
#include "sim/json.hh"
#include "sim/parallel.hh"
#include "sim/prof/coverage.hh"
#include "sim/prof/prof.hh"
#include "tests/test_util.hh"
#include "verify/progen.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

/** Bare functional rig around one program. */
struct FuncRig
{
    explicit FuncRig(const Program &prog)
        : core(prog, mem, platform)
    {
        mem.loadProgram(prog);
        core.reset();
    }

    MainMemory mem;
    Platform platform;
    ExecCore core;
};

/** Run @p prog to completion on a bare ExecCore under a profiler. */
prof::BlockProfiler
profileFunctional(const Program &prog, bool block_cache,
                  ExecObserver *obs = nullptr)
{
    FuncRig rig(prog);
    rig.core.setBlockCacheEnabled(block_cache);
    rig.core.reset();
    if (obs)
        rig.core.setObserver(obs);
    prof::BlockProfiler prof(prog);
    {
        prof::ScopedProfiler scope(prof);
        const ExecCore::FuncRunResult r =
            rig.core.runFunctional(50'000'000);
        EXPECT_TRUE(r.halted);
    }
    return prof;
}

void
expectSameProfile(const prof::BlockProfiler &a,
                  const prof::BlockProfiler &b, const char *what)
{
    EXPECT_EQ(a.totalInsts(), b.totalInsts()) << what;
    EXPECT_EQ(a.totalEntries(), b.totalEntries()) << what;
    EXPECT_EQ(a.instCounts(), b.instCounts()) << what;
    EXPECT_EQ(a.edges(), b.edges()) << what;
    const auto ba = a.blocks(), bb = b.blocks();
    ASSERT_EQ(ba.size(), bb.size()) << what;
    for (std::size_t i = 0; i < ba.size(); ++i) {
        EXPECT_EQ(ba[i].pc, bb[i].pc) << what;
        EXPECT_EQ(ba[i].entries, bb[i].entries) << what;
        EXPECT_EQ(ba[i].insts, bb[i].insts) << what;
    }
}

TEST(Prof, InstallUninstallGating)
{
    EXPECT_EQ(prof::currentProfiler(), nullptr);
    const Workload wl = makeWorkload("cnt");
    prof::BlockProfiler outer(wl.program);
    {
        prof::ScopedProfiler s1(outer);
        EXPECT_EQ(prof::currentProfiler(), &outer);
        prof::BlockProfiler inner(wl.program);
        {
            prof::ScopedProfiler s2(inner);
            EXPECT_EQ(prof::currentProfiler(), &inner);
        }
        EXPECT_EQ(prof::currentProfiler(), &outer);
    }
    EXPECT_EQ(prof::currentProfiler(), nullptr);

    // An uninstalled run records nothing into the profiler.
    FuncRig rig(wl.program);
    EXPECT_TRUE(rig.core.runFunctional(50'000'000).halted);
    EXPECT_EQ(outer.totalInsts(), 0u);
    EXPECT_EQ(outer.totalEntries(), 0u);
}

TEST(Prof, CachedUncachedAndObserverPathsAgree)
{
    // The cached batch path, the uncached per-step dispatch, and the
    // observer-forced per-instruction path must produce the same
    // block/edge profile and the same architectural result.
    struct NullObs final : ExecObserver
    {
        std::uint64_t steps = 0;
        void onStep(const ExecInfo &, const ArchState &) override
        {
            ++steps;
        }
    };

    for (const char *name : {"cnt", "mm", "fir"}) {
        const Workload wl = makeWorkload(name);
        const prof::BlockProfiler cached =
            profileFunctional(wl.program, true);
        const prof::BlockProfiler uncached =
            profileFunctional(wl.program, false);
        NullObs obs;
        const prof::BlockProfiler observed =
            profileFunctional(wl.program, true, &obs);

        EXPECT_GT(cached.totalInsts(), 0u) << name;
        EXPECT_GT(cached.totalEntries(), 0u) << name;
        expectSameProfile(cached, uncached, name);
        expectSameProfile(cached, observed, name);
        // The observer saw every instruction individually.
        EXPECT_EQ(obs.steps, cached.totalInsts()) << name;
    }
}

TEST(Prof, SimpleCpuAttributionReconciles)
{
    const Workload wl = makeWorkload("cnt");
    auto sim =
        SimBuilder().program(wl.program).cpu(CpuKind::Simple).build();
    prof::BlockProfiler prof(wl.program);
    {
        prof::ScopedProfiler scope(prof);
        sim->cpu().run(noCycleLimit);
    }
    EXPECT_EQ(prof.totalInsts(), sim->cpu().retired());
    // The in-order pipeline charges every cycle to an instruction:
    // attributed cycles alone cover the whole run.
    EXPECT_EQ(prof.attributedCycles() + prof.unattributedCycles(),
              sim->cpu().cycles());
    EXPECT_EQ(prof.unattributedCycles(), 0u);
}

TEST(Prof, OooCpuAttributionBoundsAndCounts)
{
    const Workload wl = makeWorkload("cnt");
    auto sim =
        SimBuilder().program(wl.program).cpu(CpuKind::Complex).build();
    prof::BlockProfiler prof(wl.program);
    {
        prof::ScopedProfiler scope(prof);
        sim->cpu().run(noCycleLimit);
    }
    EXPECT_EQ(prof.totalInsts(), sim->cpu().retired());
    // Retire-time attribution: every charged cycle is a real cycle,
    // and only the post-final-retire drain can go uncharged.
    EXPECT_GT(prof.attributedCycles(), 0u);
    EXPECT_LE(prof.attributedCycles() + prof.unattributedCycles(),
              sim->cpu().cycles());
}

TEST(Prof, RuntimeCheckpointJoinMatchesAetCounter)
{
    // Full VISA runtime instances: every guest AET report must land in
    // the profile, and the profile's AET total must equal the
    // run-time system's own counter exactly.
    struct Stack
    {
        explicit Stack(const std::string &name)
            : wl(makeWorkload(name)), analyzer(wl.program),
              dmiss(profileDataMisses(wl.program)),
              wcet(analyzer, dvs, &dmiss)
        {
            mem.loadProgram(wl.program);
        }
        Workload wl;
        WcetAnalyzer analyzer;
        DMissProfile dmiss;
        DvsTable dvs;
        WcetTable wcet;
        MainMemory mem;
        Platform platform;
        MemController memctrl;
    };

    Stack s("cnt");
    OooCpu cpu(s.wl.program, s.mem, s.platform, s.memctrl);
    RuntimeConfig cfg;
    cfg.deadlineSeconds = s.wcet.taskSeconds(600);
    cfg.ovhdSeconds = 2e-6;
    cfg.dvsSoftwareCycles = 500;
    cfg.drainBudgetCycles = 512;
    VisaComplexRuntime rt(cpu, s.wl.program, s.mem, s.wcet, s.dvs, cfg);

    prof::BlockProfiler prof(s.wl.program);
    constexpr int tasks = 6;
    {
        prof::ScopedProfiler scope(prof);
        for (int t = 0; t < tasks; ++t)
            EXPECT_TRUE(rt.runTask().deadlineMet);
    }

    const int nsub = s.wcet.numSubtasks();
    EXPECT_EQ(prof.checkpoints().size(),
              static_cast<std::size_t>(tasks * nsub));
    EXPECT_EQ(prof.aetCyclesTotal(), rt.aetCyclesTotal());
    EXPECT_GT(prof.aetCyclesTotal(), 0u);
    for (const prof::CheckpointRecord &c : prof.checkpoints()) {
        EXPECT_GE(c.subtask, 1);
        EXPECT_LE(c.subtask, nsub);
        EXPECT_GT(c.aet, 0u);
        EXPECT_GT(c.wcet, 0u);
        EXPECT_GE(c.freq, s.dvs.minFreq());
        EXPECT_LE(c.freq, s.dvs.maxFreq());
    }
    // Sub-task phase switches were observed: cycles landed in phases
    // beyond the "outside any sub-task" bucket.
    std::uint64_t in_phase = 0;
    for (std::size_t i = 1; i < prof.phaseCycles().size(); ++i)
        in_phase += prof.phaseCycles()[i];
    EXPECT_GT(in_phase, 0u);
}

TEST(Prof, WcetAttributionSumsToTable)
{
    const Workload wl = makeWorkload("cnt");
    WcetAnalyzer analyzer(wl.program);
    const DMissProfile dmiss = profileDataMisses(wl.program);
    DvsTable dvs;
    WcetTable wcet(analyzer, dvs, &dmiss);

    for (MHz f : {dvs.minFreq(), dvs.maxFreq()}) {
        const WcetAttribution attr = analyzer.attribute(f, &dmiss);
        EXPECT_EQ(attr.frequency, f);
        ASSERT_EQ(attr.subtaskCharges.size(),
                  static_cast<std::size_t>(wcet.numSubtasks()));
        for (int k = 0; k < wcet.numSubtasks(); ++k) {
            const auto &charges =
                attr.subtaskCharges[static_cast<std::size_t>(k)];
            std::uint64_t sum = 0;
            for (const WcetCharge &c : charges)
                sum += c.cycles;
            // The re-derived worst-case path must account for the
            // published bound cycle-for-cycle.
            EXPECT_EQ(sum, wcet.subtaskCycles(k, f))
                << "subtask " << k + 1 << " @ " << f << " MHz";
        }
    }
}

TEST(Prof, CoverageMapMonotonicAndDeterministic)
{
    prof::CoverageMap map(1 << 16);
    EXPECT_EQ(map.population(), 0u);
    EXPECT_TRUE(map.insert(0x1234567890abcdefULL));
    EXPECT_FALSE(map.insert(0x1234567890abcdefULL)) << "same bit twice";
    EXPECT_EQ(map.population(), 1u);

    // Features are deterministic per program and accumulate
    // monotonically across a corpus.
    verify::GenParams gen;
    std::uint64_t last_pop = map.population();
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const verify::GeneratedProgram g = verify::generate(seed, gen);
        const prof::BlockProfiler p = profileFunctional(g.program, true);
        const std::vector<std::uint64_t> feats =
            prof::coverageFeatures(p, g.program);
        EXPECT_FALSE(feats.empty()) << "seed " << seed;

        const prof::BlockProfiler p2 =
            profileFunctional(g.program, false);
        EXPECT_EQ(feats, prof::coverageFeatures(p2, g.program))
            << "features must not depend on the dispatch path";

        map.add(feats);
        EXPECT_GE(map.population(), last_pop);
        last_pop = map.population();
        EXPECT_EQ(map.add(feats), 0u) << "re-adding discovers nothing";
    }
    EXPECT_GT(map.population(), 1u);
}

TEST(Prof, ProfileJsonParsesAndMatchesAccessors)
{
    const Workload wl = makeWorkload("cnt");
    const prof::BlockProfiler prof = profileFunctional(wl.program, true);

    std::ostringstream os;
    prof.writeJson(os);
    const json::Value doc = json::Parser(os.str()).parse();
    EXPECT_EQ(doc.at("kind").string, "visa-profile");
    EXPECT_EQ(static_cast<std::uint64_t>(doc.at("schema").number), 3u);
    const json::Value &total = doc.at("total");
    EXPECT_EQ(static_cast<std::uint64_t>(total.at("insts").number),
              prof.totalInsts());
    EXPECT_EQ(
        static_cast<std::uint64_t>(total.at("block_entries").number),
        prof.totalEntries());
    EXPECT_EQ(doc.at("blocks").array.size(), prof.blocks().size());
    EXPECT_EQ(doc.at("edges").array.size(), prof.edges().size());
    // Every block row carries its disassembly.
    for (const json::Value &b : doc.at("blocks").array)
        EXPECT_EQ(b.at("disasm").array.size(),
                  static_cast<std::size_t>(b.at("words").number));
}

/** One arm of the pool-width determinism check: profile JSON bytes. */
std::string
profileArm(const Workload &wl)
{
    auto sim = SimBuilder()
                   .program(wl.program)
                   .cpu(CpuKind::Simple)
                   .blockCache(true)
                   .build();
    prof::BlockProfiler prof(wl.program);
    {
        prof::ScopedProfiler scope(prof);
        sim->cpu().run(noCycleLimit);
    }
    std::ostringstream os;
    prof.writeJson(os);
    return os.str();
}

TEST(Prof, ProfilesAreByteIdenticalAcrossPools)
{
    // Same workloads, serial vs a 4-wide pool: profiling is
    // thread-local, so the exported profiles must not change by a byte.
    const std::vector<std::string> names = {"cnt", "fir"};
    std::vector<Workload> wls;
    for (const auto &n : names)
        wls.push_back(makeWorkload(n));

    std::vector<std::string> serial(wls.size());
    for (std::size_t i = 0; i < wls.size(); ++i)
        serial[i] = profileArm(wls[i]);

    std::vector<std::string> pooled(wls.size());
    {
        test::ScopedThreads four("4");
        parallelFor(wls.size(), [&](std::size_t i) {
            pooled[i] = profileArm(wls[i]);
        });
    }

    for (std::size_t i = 0; i < wls.size(); ++i) {
        EXPECT_FALSE(serial[i].empty()) << names[i];
        EXPECT_EQ(pooled[i], serial[i]) << names[i];
    }
}

} // anonymous namespace
} // namespace visa
