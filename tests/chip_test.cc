/**
 * @file
 * Multi-core chip model tests (src/chip + the scheduler's multi-core
 * engine): interconnect contention units (bank arbitration, the chip
 * MSHR pool, the shared L2, epoch-only routing), free-run contention
 * through SimBuilder::cores(), single-core chip equivalence with the
 * plain rig, partitioned / global EDF placement (determinism, affinity
 * pins, cross-core preemption isolation), the interference-aware
 * admission bound, and the FlexStep-style paired-core detector against
 * the inject matrix.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench/bench_util.hh"
#include "chip/chip.hh"
#include "chip/interconnect.hh"
#include "chip/paired.hh"
#include "core/scheduler.hh"
#include "sim/builder.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "verify/inject.hh"
#include "workloads/clab.hh"
#include "workloads/tasksets.hh"

namespace visa
{
namespace
{

using bench::makeTaskSetDefs;

void
addAll(MultiTaskScheduler &sched, const std::vector<SchedTaskDef> &defs)
{
    for (const SchedTaskDef &d : defs)
        sched.addTask(d);
}

std::vector<SchedTaskDef>
clab6Defs(double util)
{
    return makeTaskSetDefs(parseTaskSet("clab6"), util);
}

// ---- interconnect units ----

TEST(Chip, InterconnectBankConflictQueuesSecondRequest)
{
    chip::ChipBusParams p;
    p.banks = 1;    // every block collides
    p.mshrs = 16;
    chip::ChipInterconnect ic(2, p);

    // Inside one epoch a core queues behind its own traffic but not
    // behind another core's: each lane sees the epoch-frozen state plus
    // its own requests only.
    ic.beginEpoch();
    const Cycles d0 = ic.route(0, 0, 1000, 0x1000);
    const Cycles queued = ic.route(0, 0, 1000, 0x2000);
    const Cycles d1 = ic.route(1, 0, 1000, 0x3000);
    EXPECT_GT(queued, d0);
    EXPECT_EQ(d1, d0);
    ic.drainEpoch();
    // The drain replays all three on the one bank: two of them waited.
    EXPECT_EQ(ic.requests(), 3u);
    EXPECT_EQ(ic.bankConflicts(), 2u);
    EXPECT_GT(ic.bankWaitNs(), 0.0);
    EXPECT_EQ(ic.mshrStalls(), 0u);

    // The next epoch's snapshot carries that occupancy: core 1 now
    // queues behind the traffic of both cores.
    ic.beginEpoch();
    EXPECT_GT(ic.route(1, 0, 1000, 0x4000), queued);
    ic.drainEpoch();
    EXPECT_EQ(ic.bankConflicts(), 3u);
}

TEST(Chip, InterconnectMshrPoolStallsWhenFull)
{
    chip::ChipBusParams p;
    p.banks = 8;    // no bank conflicts at these addresses
    p.mshrs = 1;    // one outstanding fill chip-wide
    chip::ChipInterconnect ic(2, p);

    ic.beginEpoch();
    const Cycles d0 = ic.route(0, 0, 1000, 0x1000);
    const Cycles stalled = ic.route(0, 0, 1000, 0x2040);
    const Cycles d1 = ic.route(1, 0, 1000, 0x4080);
    EXPECT_GT(stalled, d0);
    EXPECT_EQ(d1, d0);
    ic.drainEpoch();
    EXPECT_EQ(ic.mshrStalls(), 2u);
    EXPECT_GT(ic.mshrWaitNs(), 0.0);
    EXPECT_EQ(ic.bankConflicts(), 0u);

    // Next epoch: core 1 stalls behind the chip's outstanding fills.
    ic.beginEpoch();
    EXPECT_GT(ic.route(1, 0, 1000, 0x60c0), stalled);
    ic.drainEpoch();
    EXPECT_EQ(ic.mshrStalls(), 3u);
}

TEST(Chip, InterconnectSharedL2HitsAfterFill)
{
    chip::ChipBusParams p;
    chip::ChipInterconnect ic(2, p);

    // Core 0 fills the block and reuses it much later in the same
    // epoch (its own fill hits); core 1 cannot see that fill until the
    // epoch drains.
    ic.beginEpoch();
    const Cycles miss = ic.route(0, 0, 1000, 0x3000);
    const Cycles reuse = ic.route(0, 100000, 1000, 0x3000) - 100000;
    const Cycles early = ic.route(1, 100000, 1000, 0x3000) - 100000;
    EXPECT_LT(reuse, miss);
    EXPECT_EQ(early, miss);
    ic.drainEpoch();
    // The authoritative replay hits both reuses in the shared L2.
    EXPECT_EQ(ic.requests(), 3u);
    EXPECT_EQ(ic.l2Hits(), 2u);

    // From the next epoch on, core 1 hits the shared L2 too
    // (cross-core reuse).
    ic.beginEpoch();
    EXPECT_EQ(ic.route(1, 200000, 1000, 0x3000) - 200000, reuse);
    ic.drainEpoch();
    EXPECT_EQ(ic.l2Hits(), 3u);
}

TEST(Chip, InterconnectRouteOutsideEpochIsFatal)
{
    chip::ChipInterconnect ic(2);
    EXPECT_THROW(ic.route(0, 0, 1000, 0x1000), FatalError);
    ic.beginEpoch();
    ic.route(0, 0, 1000, 0x1000);
    ic.drainEpoch();
    EXPECT_THROW(ic.route(1, 10, 1000, 0x2000), FatalError);
    EXPECT_EQ(ic.requests(), 1u);
}

// ---- chip free run ----

TEST(Chip, TwoCoreFreeRunContendsAndBothHalt)
{
    auto c = SimBuilder()
                 .workload("mm")
                 .cpu(CpuKind::Complex)
                 .cores(2)
                 .buildChip();
    const chip::Chip::RunAllResult r = c->runAll(20'000'000'000ULL);
    ASSERT_TRUE(r.allHalted);
    EXPECT_EQ(c->core(0).ooo().retired(), c->core(1).ooo().retired());
    // Both cores ran the same program through the shared bus: the
    // contention model must have seen traffic.
    EXPECT_GT(c->bus().requests(), 0u);
    EXPECT_GT(c->bus().bankConflicts() + c->bus().mshrStalls(), 0u);
}

TEST(Chip, SingleCoreChipMatchesHistoricalRig)
{
    // cores(1) must be the pre-chip rig bit-for-bit: same cycles, same
    // retired count (the bus is never attached for one core).
    const Workload wl = makeWorkload("cnt");
    bench::Rig<OooCpu> rig(wl.program);
    rig.cpu->run(20'000'000'000ULL);

    auto c = SimBuilder()
                 .workload("cnt")
                 .cpu(CpuKind::Complex)
                 .cores(1)
                 .buildChip();
    const chip::Chip::RunAllResult r = c->runAll(20'000'000'000ULL);
    ASSERT_TRUE(r.allHalted);
    EXPECT_EQ(c->core(0).ooo().retired(), rig.cpu->retired());
    EXPECT_EQ(c->core(0).ooo().cycles(), rig.cpu->cycles());
    EXPECT_EQ(c->bus().requests(), 0u);
}

// ---- placement policies ----

TEST(Chip, PartitionedEdfScheduleIsDeterministic)
{
    SchedulerConfig cfg;
    cfg.cores = 4;
    cfg.placement = PlacementPolicy::Partitioned;

    ScheduleOutcome out[2];
    std::vector<int> asg[2];
    std::vector<std::uint64_t> retired[2];
    for (int pass = 0; pass < 2; ++pass) {
        MultiTaskScheduler sched(cfg);
        addAll(sched, clab6Defs(0.85));
        ASSERT_EQ(sched.admissionError(), "");
        out[pass] = sched.run(3);
        asg[pass] = sched.assignment();
        for (int t = 0; t < sched.numTasks(); ++t)
            retired[pass].push_back(sched.taskStats(t).retired);
    }
    EXPECT_EQ(out[0].deadlineMisses, 0);
    EXPECT_EQ(out[0].wallSeconds, out[1].wallSeconds);
    EXPECT_EQ(out[0].jobs, out[1].jobs);
    EXPECT_EQ(out[0].preemptions, out[1].preemptions);
    EXPECT_EQ(out[0].contextSwitches, out[1].contextSwitches);
    EXPECT_EQ(asg[0], asg[1]);
    EXPECT_EQ(retired[0], retired[1]);
}

TEST(Chip, GlobalEdfSchedulesClab6OnFourCores)
{
    SchedulerConfig cfg;
    cfg.cores = 4;
    cfg.placement = PlacementPolicy::Global;
    MultiTaskScheduler sched(cfg);
    addAll(sched, clab6Defs(0.85));
    ASSERT_EQ(sched.admissionError(), "");

    const ScheduleOutcome out = sched.run(3);
    EXPECT_EQ(out.deadlineMisses, 0);
    EXPECT_EQ(out.jobs, 6 * 3);
    // Global placement never pins: jobs migrate.
    for (int a : sched.assignment())
        EXPECT_EQ(a, -1);
}

TEST(Chip, PartitionedAffinityPinsAreRespected)
{
    SchedulerConfig cfg;
    cfg.cores = 2;
    cfg.placement = PlacementPolicy::Partitioned;
    cfg.affinity = {1, -1, 0, -1, -1, -1};
    MultiTaskScheduler sched(cfg);
    addAll(sched, clab6Defs(0.8));
    ASSERT_EQ(sched.admissionError(), "");
    sched.run(1);

    const std::vector<int> &asg = sched.assignment();
    ASSERT_EQ(asg.size(), 6u);
    EXPECT_EQ(asg[0], 1);
    EXPECT_EQ(asg[2], 0);
    for (int a : asg) {
        EXPECT_GE(a, 0);
        EXPECT_LT(a, 2);
    }
}

TEST(Chip, CrossCorePreemptionIsolation)
{
    // cnt + mm pinned to core 0, with mm phased so its job straddles
    // cnt's next release (EDF must preempt on core 0); srt alone on
    // core 1. A core-0 preemption must never touch the core-1 task.
    // The phase is tighter than the single-core preempting trio's 0.9:
    // with srt off-core, core 0 is idle when mm releases, so mm needs
    // less headroom before cnt's release to still be mid-job there.
    const std::vector<TaskSetMemberSpec> members = {
        {"cnt", 1.0}, {"mm", 1.0}, {"srt", 1.0}};
    std::vector<SchedTaskDef> defs = makeTaskSetDefs(members, 0.9);
    defs[1].phaseSeconds = 0.95 * defs[0].periodSeconds;

    SchedulerConfig cfg;
    cfg.cores = 2;
    cfg.placement = PlacementPolicy::Partitioned;
    cfg.affinity = {0, 0, 1};
    MultiTaskScheduler sched(cfg);
    addAll(sched, defs);
    ASSERT_EQ(sched.admissionError(), "");

    const ScheduleOutcome out = sched.run(8);
    EXPECT_EQ(out.deadlineMisses, 0);
    EXPECT_GT(sched.taskStats(0).preemptions +
                  sched.taskStats(1).preemptions,
              0);
    EXPECT_EQ(sched.taskStats(2).preemptions, 0);
    EXPECT_EQ(sched.taskStats(2).deadlineMisses, 0);
}

TEST(Chip, AdmissionRejectsWhenInterferenceInflatesDemand)
{
    // The same set admits on one core but must be rejected on four
    // once the cross-core interference bound inflates every budget
    // past per-core feasibility.
    {
        SchedulerConfig cfg;
        cfg.cores = 1;
        MultiTaskScheduler sched(cfg);
        addAll(sched, clab6Defs(0.8));
        EXPECT_EQ(sched.admissionError(), "");
    }
    SchedulerConfig cfg;
    cfg.cores = 4;
    cfg.placement = PlacementPolicy::Partitioned;
    cfg.memStallShare = 1.0;            // every cycle stalls...
    cfg.bus.busOccupancyNs = 500.0;     // ...behind a very slow bus
    MultiTaskScheduler sched(cfg);
    addAll(sched, clab6Defs(0.8));
    const std::string err = sched.admissionError();
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("P-EDF"), std::string::npos) << err;
}

TEST(Chip, GlobalAdmissionEnforcesGfbBound)
{
    SchedulerConfig cfg;
    cfg.cores = 2;
    cfg.placement = PlacementPolicy::Global;
    cfg.memStallShare = 1.0;
    cfg.bus.busOccupancyNs = 500.0;
    MultiTaskScheduler sched(cfg);
    addAll(sched, clab6Defs(0.9));
    const std::string err = sched.admissionError();
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("GFB"), std::string::npos) << err;
}

TEST(Chip, ParsePolicyNamesWithPlacement)
{
    SchedPolicy pol = SchedPolicy::RateMonotonic;
    PlacementPolicy pl = PlacementPolicy::Global;
    EXPECT_TRUE(parseSchedPolicyEx("pedf", pol, pl));
    EXPECT_EQ(pol, SchedPolicy::Edf);
    EXPECT_EQ(pl, PlacementPolicy::Partitioned);
    EXPECT_TRUE(parseSchedPolicyEx("gedf", pol, pl));
    EXPECT_EQ(pl, PlacementPolicy::Global);
    // Plain names keep the current placement.
    EXPECT_TRUE(parseSchedPolicyEx("rm", pol, pl));
    EXPECT_EQ(pol, SchedPolicy::RateMonotonic);
    EXPECT_EQ(pl, PlacementPolicy::Global);
    EXPECT_FALSE(parseSchedPolicyEx("bogus", pol, pl));
}

TEST(Chip, MultiCoreStatsCarryPerCoreAndBusGroups)
{
    SchedulerConfig cfg;
    cfg.cores = 2;
    cfg.placement = PlacementPolicy::Partitioned;
    MultiTaskScheduler sched(cfg);
    addAll(sched, clab6Defs(0.8));
    ASSERT_EQ(sched.admissionError(), "");
    sched.run(2);

    StatSet set;
    sched.buildStats(set);
    std::ostringstream os;
    set.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"core0\""), std::string::npos);
    EXPECT_NE(json.find("\"core1\""), std::string::npos);
    EXPECT_NE(json.find("\"bus\""), std::string::npos);
}

// ---- paired-core detector ----

TEST(Chip, PairedCheckPassesFaultFree)
{
    const Workload wl = makeWorkload("cnt");
    const chip::PairedCheckResult r =
        chip::runPairedCheck(wl.program, nullptr, 20'000'000'000ULL);
    EXPECT_FALSE(r.detected) << r.report;
    EXPECT_EQ(r.victimRetired, r.spareRetired);
}

TEST(Chip, PairedDetectorCoversLoadExtAtLeastAsWellAsLockstep)
{
    // The acceptance bar: over a seed sweep of the load-ext class, the
    // paired-core vote must catch at least the lockstep-detected
    // fraction (both detectors see the same plain-twin injections).
    verify::InjectRunOptions io;
    io.pairedCheck = true;
    int fired = 0, lockstep = 0, paired = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const verify::InjectRunResult r = verify::runInjectProgram(
            seed, verify::FaultClass::LoadExt, io);
        if (r.fault.fired)
            ++fired;
        if (r.outcome == verify::InjectOutcome::DetectedLockstep)
            ++lockstep;
        if (r.pairedChecked && r.pairedDetected)
            ++paired;
    }
    EXPECT_GT(fired, 0);
    EXPECT_GT(paired, 0);
    EXPECT_GE(paired, lockstep);
}

} // anonymous namespace
} // namespace visa
