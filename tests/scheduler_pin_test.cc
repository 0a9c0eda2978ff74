/**
 * @file
 * Scheduler output pins: a fixed matrix of schedules — one core under
 * EDF, RM, the max-request governor, restart recovery and an EDF tie;
 * two cores partitioned under EDF, RM, restart recovery and the
 * max-request governor, and global with preemption and restart
 * recovery; four cores
 * partitioned and global — each folded into FNV-1a digests of
 * everything the engine produces: the stats JSON, the trace JSONL of
 * the run-time and scheduler categories (the ring is sized so it never
 * wraps), the job records and outcome at full precision, and the
 * per-task counters plus the task-to-core assignment. Partitioned rows
 * run at VISA_THREADS 1 and 8 against the same digests.
 *
 * The scheduler's safety composition (watchdog, EQ 1/EQ 4 checkpoints,
 * recovery confined to the recovering task's budget) executes inside
 * one engine shared by every placement; these pins make any drift of a
 * refactor visible as a named row and component rather than a scatter
 * of downstream differences. On a deliberate change of scheduler
 * output, the failure message prints the new digest to paste below.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/scheduler.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "tests/test_util.hh"
#include "workloads/tasksets.hh"

namespace visa
{
namespace
{

using test::Fnv1a;
using test::ScopedThreads;

/** The four pinned digests of one schedule. */
struct Digests
{
    std::uint64_t stats = 0;    ///< StatSet JSON
    std::uint64_t trace = 0;    ///< Tracer JSONL
    std::uint64_t jobs = 0;     ///< JobRecords + ScheduleOutcome
    std::uint64_t tasks = 0;    ///< per-task counters + assignment()
};

/** One pinned schedule: how to build it, and what it must produce. */
struct PinRow
{
    const char *name;
    SchedulerConfig cfg;
    std::function<std::vector<SchedTaskDef>()> defs;
    int jobsPerTask;
    Digests want;
};

Digests
runRow(const PinRow &row)
{
    // Big enough for every row's whole event stream: a wrapped ring
    // would pin only a suffix.
    Tracer tracer(1 << 20);
    std::uint32_t mask = 0;
    for (const char *cat :
         {"sched", "task", "checkpoint", "mode", "dvs", "fault"})
        mask |= Tracer::maskFor(cat);
    tracer.setKindMask(mask);

    MultiTaskScheduler sched(row.cfg);
    for (const SchedTaskDef &d : row.defs())
        sched.addTask(d);
    EXPECT_EQ(sched.admissionError(), "") << row.name;
    ScheduleOutcome out;
    {
        ScopedTracer install(tracer);
        out = sched.run(row.jobsPerTask);
    }
    EXPECT_EQ(tracer.dropped(), 0u) << row.name;
    EXPECT_EQ(out.deadlineMisses, 0) << row.name;

    Digests d;
    StatSet set;
    sched.buildStats(set);
    std::ostringstream stats, trace;
    set.dumpJson(stats);
    tracer.writeJsonl(trace);
    Fnv1a fs, ft;
    fs.text(stats.str());
    ft.text(trace.str());
    d.stats = fs.value();
    d.trace = ft.value();

    Fnv1a fj;
    for (const JobRecord &j : sched.jobs()) {
        fj.integer(j.task);
        fj.integer(j.job);
        fj.real(j.releaseSeconds);
        fj.real(j.completionSeconds);
        fj.real(j.deadlineSeconds);
        fj.integer(j.deadlineMet);
        fj.integer(j.missedCheckpoint);
        fj.integer(j.preemptions);
        fj.real(j.busySeconds);
    }
    fj.real(out.wallSeconds);
    fj.integer(out.jobs);
    fj.integer(out.dispatches);
    fj.integer(out.preemptions);
    fj.integer(out.contextSwitches);
    fj.integer(out.freqChanges);
    fj.real(out.switchOverheadSeconds);
    fj.real(out.idleSeconds);
    fj.integer(out.deadlineMisses);
    fj.integer(out.checkpointMisses);
    d.jobs = fj.value();

    Fnv1a fk;
    for (int t = 0; t < sched.numTasks(); ++t) {
        const SchedTaskStats &st = sched.taskStats(t);
        fk.integer(static_cast<std::int64_t>(st.retired));
        fk.integer(st.checkpointMisses);
        fk.integer(st.jobs);
        fk.integer(st.preemptions);
        fk.integer(st.badChecksums);
        fk.real(st.busySeconds);
        fk.real(st.minSlackSeconds);
        fk.real(st.maxResponseSeconds);
    }
    for (int a : sched.assignment())
        fk.integer(a);
    d.tasks = fk.value();
    return d;
}

void
expectPinned(const PinRow &row, const char *threads)
{
    const Digests got = runRow(row);
    const auto check = [&](const char *what, std::uint64_t want,
                           std::uint64_t have) {
        EXPECT_EQ(have, want)
            << row.name << " (VISA_THREADS=" << threads << ") " << what
            << ": new digest 0x" << std::hex << have << "ULL";
    };
    check("stats", row.want.stats, got.stats);
    check("trace", row.want.trace, got.trace);
    check("jobs", row.want.jobs, got.jobs);
    check("tasks", row.want.tasks, got.tasks);
}

// ---- task sets (the shapes the scheduler and chip suites exercise) ----

std::vector<SchedTaskDef>
trio(double util)
{
    return makeTaskSetDefs(parseTaskSet("trio"), util);
}

std::vector<SchedTaskDef>
flatTrio(double util)
{
    return makeTaskSetDefs({{"cnt", 1.0}, {"mm", 1.0}, {"srt", 1.0}},
                           util);
}

/** mm phased to straddle cnt's next release: EDF must preempt. */
std::vector<SchedTaskDef>
preemptingTrio(double util, double phase)
{
    std::vector<SchedTaskDef> defs = flatTrio(util);
    defs[1].phaseSeconds = phase * defs[0].periodSeconds;
    return defs;
}

/** The restart-recovery benchmark's shape with fixed phases. */
std::vector<SchedTaskDef>
mixedRestart(double util)
{
    std::vector<SchedTaskDef> defs =
        makeTaskSetDefs(parseTaskSet("mixed"), util);
    for (std::size_t i = 0; i < defs.size(); ++i) {
        defs[i].runtime.recoveryPolicy = RecoveryPolicy::Restart;
        defs[i].forceMissEvery = 3;
        defs[i].phaseSeconds =
            0.1 * static_cast<double>(i) * defs[i].periodSeconds;
    }
    return defs;
}

std::vector<SchedTaskDef>
clab6(double util)
{
    return makeTaskSetDefs(parseTaskSet("clab6"), util);
}

SchedulerConfig
chipConfig(int cores, PlacementPolicy placement)
{
    SchedulerConfig cfg;
    cfg.cores = cores;
    cfg.placement = placement;
    return cfg;
}

// ---- the pinned matrix ----

std::vector<PinRow>
singleCoreRows()
{
    SchedulerConfig rm;
    rm.policy = SchedPolicy::RateMonotonic;
    SchedulerConfig maxReq;
    maxReq.governor = GovernorPolicy::MaxRequest;
    return {
        {"m1_edf_preempting_trio", SchedulerConfig{},
         [] { return preemptingTrio(0.9, 0.9); }, 12,
         {0x46c5309d806c85fULL, 0x7ed0c5008eb431adULL,
          0x71782e3e50264999ULL, 0xc2a23263a6b8c111ULL}},
        {"m1_rm_trio_0.6", rm, [] { return trio(0.6); }, 8,
         {0x5c316f428c38f7ebULL, 0x9d9106d12a61a053ULL,
          0x865d6e916455c56dULL, 0x4651264c270c3fa7ULL}},
        {"m1_max_request_trio", maxReq, [] { return trio(0.85); }, 8,
         {0xd783eea16ca0fd08ULL, 0x99588b4684c07328ULL,
          0x77b43a2283c5c4ebULL, 0x421e5d17a44dc08ULL}},
        {"m1_mixed_restart", maxReq, [] { return mixedRestart(0.85); }, 4,
         {0x4ea46b9311e9fa74ULL, 0x4499d75651f1d09bULL,
          0xb96cd06fd25edb01ULL, 0xd4b56ecb49f70ac6ULL}},
        {"m1_edf_twins", SchedulerConfig{},
         [] {
             return makeTaskSetDefs({{"cnt", 1.0}, {"cnt", 1.0}}, 0.8);
         },
         6,
         {0x19773457165758e6ULL, 0x4de37c2a1882acb6ULL,
          0x5a3233fc7f7a76c7ULL, 0xdfe837e57e24cce7ULL}},
    };
}

std::vector<PinRow>
partitionedRows()
{
    SchedulerConfig pinned = chipConfig(2, PlacementPolicy::Partitioned);
    pinned.affinity = {1, -1, 0, -1, -1, -1};
    SchedulerConfig cross = chipConfig(2, PlacementPolicy::Partitioned);
    cross.affinity = {0, 0, 1};
    SchedulerConfig prm = chipConfig(2, PlacementPolicy::Partitioned);
    prm.policy = SchedPolicy::RateMonotonic;
    // Restart recovery on both partitions. Each partition is its own
    // DVS domain: the max-request governor raises a dispatch's clock to
    // the core's own ready tasks only. On this set it does raise one
    // (the two rows' digests differ), and maxing over the whole chip
    // would change the result at VISA_THREADS=1 too.
    SchedulerConfig mixed = chipConfig(2, PlacementPolicy::Partitioned);
    mixed.affinity = {0, 1, 0, 1};
    SchedulerConfig mixedMax = mixed;
    mixedMax.governor = GovernorPolicy::MaxRequest;
    return {
        {"m2_pedf_clab6_affinity", pinned, [] { return clab6(0.8); }, 2,
         {0xecf7e461e966bd55ULL, 0xf1fa048ca6ee32ceULL,
          0xbf58a88614add847ULL, 0xd9ff0297ca6f1433ULL}},
        {"m2_pedf_cross_core", cross,
         [] { return preemptingTrio(0.9, 0.95); }, 8,
         {0x1c4b450affd94fa1ULL, 0x9cfe8c7363644e1dULL,
          0x9100717d3555a1ddULL, 0xad9bc65972d459a6ULL}},
        {"m2_pedf_mixed_restart", mixed, [] { return mixedRestart(1.1); },
         6,
         {0x6b2ac1781a8a9fc2ULL, 0x83cb06e0305dbcc5ULL,
          0xb9a301c6d267d597ULL, 0xa066749731a5fef0ULL}},
        {"m2_pedf_mixed_restart_max_request", mixedMax,
         [] { return mixedRestart(1.1); }, 6,
         {0xe6d65ba09d7bf1fdULL, 0xd37e24e29a5e1494ULL,
          0xc72faec2deb67db8ULL, 0x34b1f92e615cd3f7ULL}},
        {"m2_prm_clab6", prm, [] { return clab6(0.6); }, 2,
         {0xc51e70dc3341dd2cULL, 0x93914685e1185765ULL,
          0x686a62f972ebb183ULL, 0x12d3bf07f9a2e951ULL}},
        {"m4_pedf_clab6", chipConfig(4, PlacementPolicy::Partitioned),
         [] { return clab6(0.85); }, 3,
         {0xebd8d92a02884bf5ULL, 0xd147f19ad9acce9eULL,
          0x6d956a0ae9d9865aULL, 0x75821a9f1eb29cefULL}},
    };
}

std::vector<PinRow>
globalRows()
{
    SchedulerConfig maxReq = chipConfig(4, PlacementPolicy::Global);
    maxReq.governor = GovernorPolicy::MaxRequest;
    // The two-core rows load the set past one core so that global EDF
    // preempts, and the restart row recovers, with jobs migrating.
    return {
        {"m2_gedf_preempting_trio", chipConfig(2, PlacementPolicy::Global),
         [] { return preemptingTrio(1.2, 0.9); }, 8,
         {0x32f4d32a09d411fdULL, 0xe91757c7d5e60395ULL,
          0xfcec909aa0867748ULL, 0xb7e8db1382862675ULL}},
        {"m2_gedf_mixed_restart", chipConfig(2, PlacementPolicy::Global),
         [] { return mixedRestart(1.275); }, 6,
         {0xdc1f99a6a48cf725ULL, 0x65b23ed87bee04a1ULL,
          0x469d6247ead3fe88ULL, 0xc2418ff05161e9b4ULL}},
        {"m4_gedf_clab6", chipConfig(4, PlacementPolicy::Global),
         [] { return clab6(0.85); }, 3,
         {0x9f59d1655f69a7a3ULL, 0xf9d7949af63e4f8fULL,
          0xa8bb345500c69711ULL, 0x3b983be723e5944cULL}},
        {"m4_gedf_clab6_max_request", maxReq, [] { return clab6(0.85); },
         3, {0xd726e81ce48ce69dULL, 0xe8524da1c065d7baULL,
          0xd4c8e0813daa1ffcULL, 0xb4249289e5a16bdbULL}},
    };
}

TEST(SchedulerPin, SingleCoreSchedules)
{
    for (const PinRow &row : singleCoreRows())
        expectPinned(row, "default");
}

TEST(SchedulerPin, PartitionedSchedulesAtOneAndEightThreads)
{
    for (const PinRow &row : partitionedRows()) {
        for (const char *threads : {"1", "8"}) {
            ScopedThreads pin(threads);
            expectPinned(row, threads);
        }
    }
}

TEST(SchedulerPin, GlobalSchedules)
{
    for (const PinRow &row : globalRows())
        expectPinned(row, "default");
}

} // anonymous namespace
} // namespace visa
