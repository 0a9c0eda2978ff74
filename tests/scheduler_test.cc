/**
 * @file
 * Preemptive multi-task scheduler tests (core/scheduler.hh): the
 * multi-task safety composition — per-task deadline guarantees under
 * EDF and rate-monotonic dispatching, watchdog isolation (one task's
 * forced recoveries never consume another task's slack), deterministic
 * tie-breaking, and the admission control that refuses infeasible
 * sets. Task definitions come from the same analyzed-benchmark path
 * the tools use (core/experiment.hh).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "core/scheduler.hh"
#include "workloads/tasksets.hh"

namespace visa
{
namespace
{

std::vector<SchedTaskDef>
trioDefs(double util)
{
    return makeTaskSetDefs(parseTaskSet("trio"), util);
}

/**
 * The trio's workloads with all period scales at 1, so @p util is the
 * set's actual utilization (the named set's staggered scales dilute
 * it); high values make preemption certain.
 */
std::vector<SchedTaskDef>
flatTrioDefs(double util)
{
    const std::vector<TaskSetMemberSpec> members = {
        {"cnt", 1.0}, {"mm", 1.0}, {"srt", 1.0}};
    return makeTaskSetDefs(members, util);
}

void
addAll(MultiTaskScheduler &sched, const std::vector<SchedTaskDef> &defs)
{
    for (const SchedTaskDef &d : defs)
        sched.addTask(d);
}

/**
 * Phase the longest-running member (mm) so its execution straddles
 * cnt's next release: cnt re-releases with an earlier absolute
 * deadline while mm is mid-job, so EDF must preempt. (Admissible sets
 * spend far less than their WCET budgets, so without phasing, jobs of
 * these short benchmarks rarely overlap.)
 */
std::vector<SchedTaskDef>
preemptingTrioDefs(double util)
{
    std::vector<SchedTaskDef> defs = flatTrioDefs(util);
    defs[1].phaseSeconds = 0.9 * defs[0].periodSeconds;
    return defs;
}

TEST(Scheduler, ThreeTaskEdfMeetsEveryDeadlineWithPreemptions)
{
    // High enough utilization that jobs overlap and EDF must preempt.
    MultiTaskScheduler sched;
    addAll(sched, preemptingTrioDefs(0.9));
    ASSERT_EQ(sched.admissionError(), "");

    const ScheduleOutcome out = sched.run(12);
    EXPECT_EQ(out.deadlineMisses, 0);
    EXPECT_GT(out.preemptions, 0);
    EXPECT_EQ(out.jobs, 3 * 12);
    for (int t = 0; t < sched.numTasks(); ++t) {
        const SchedTaskStats &st = sched.taskStats(t);
        EXPECT_EQ(st.jobs, 12) << "task " << t;
        EXPECT_EQ(st.deadlineMisses, 0) << "task " << t;
        EXPECT_EQ(st.badChecksums, 0) << "task " << t;
        EXPECT_GE(st.minSlackSeconds, 0.0) << "task " << t;
    }
}

TEST(Scheduler, ForcedExpiryOfAnyOneTaskIsIsolated)
{
    // The acceptance scenario: force watchdog expiries in each task of
    // the trio in turn; every task's deadlines must still hold, and
    // the recoveries must stay confined to the victim.
    for (int victim = 0; victim < 3; ++victim) {
        std::vector<SchedTaskDef> defs = trioDefs(0.85);
        defs[static_cast<std::size_t>(victim)].forceMissEvery = 2;

        MultiTaskScheduler sched;
        addAll(sched, defs);
        ASSERT_EQ(sched.admissionError(), "") << "victim " << victim;

        const ScheduleOutcome out = sched.run(8);
        EXPECT_EQ(out.deadlineMisses, 0) << "victim " << victim;
        for (int t = 0; t < sched.numTasks(); ++t) {
            const SchedTaskStats &st = sched.taskStats(t);
            EXPECT_EQ(st.deadlineMisses, 0)
                << "victim " << victim << " task " << t;
            EXPECT_EQ(st.badChecksums, 0)
                << "victim " << victim << " task " << t;
            if (t == victim)
                EXPECT_GT(st.checkpointMisses, 0) << "victim " << victim;
            else
                EXPECT_EQ(st.checkpointMisses, 0)
                    << "victim " << victim << " task " << t;
        }
    }
}

TEST(Scheduler, RecoveringTaskAlsoSurvivesPreemption)
{
    // A task that both recovers from forced expiries and gets
    // preempted in the same schedule: the watchdog freezes across
    // preemption, so recovery + preemption compose safely.
    std::vector<SchedTaskDef> defs = preemptingTrioDefs(0.9);
    defs[0].forceMissEvery = 1;    // every job of task 0 recovers

    MultiTaskScheduler sched;
    addAll(sched, defs);
    ASSERT_EQ(sched.admissionError(), "");

    const ScheduleOutcome out = sched.run(10);
    EXPECT_EQ(out.deadlineMisses, 0);
    const SchedTaskStats &victim = sched.taskStats(0);
    EXPECT_EQ(victim.checkpointMisses, 10);
    EXPECT_EQ(victim.deadlineMisses, 0);
    EXPECT_EQ(victim.badChecksums, 0);
    // The schedule must actually interleave: some job of some task was
    // preempted while the victim kept recovering.
    EXPECT_GT(out.preemptions, 0);
}

TEST(Scheduler, EdfTieBreaksByTaskIndexDeterministically)
{
    // Two identical tasks release simultaneously with equal absolute
    // deadlines at every job: the tie must always go to the lower
    // index, so task 0's k-th job completes before task 1's.
    const std::vector<TaskSetMemberSpec> twins = {{"cnt", 1.0},
                                                  {"cnt", 1.0}};
    MultiTaskScheduler sched;
    addAll(sched, makeTaskSetDefs(twins, 0.8));
    ASSERT_EQ(sched.admissionError(), "");

    const ScheduleOutcome out = sched.run(6);
    EXPECT_EQ(out.deadlineMisses, 0);

    double completion[2][6] = {};
    for (const JobRecord &j : sched.jobs())
        completion[j.task][j.job] = j.completionSeconds;
    for (int k = 0; k < 6; ++k)
        EXPECT_LT(completion[0][k], completion[1][k]) << "job " << k;
}

TEST(Scheduler, ScheduleIsReproducible)
{
    // Same defs, two independent schedulers: byte-identical job
    // records (dispatch order, completions, preemption counts).
    auto runOnce = [] {
        MultiTaskScheduler sched;
        addAll(sched, trioDefs(0.85));
        sched.run(8);
        std::ostringstream ss;
        for (const JobRecord &j : sched.jobs())
            ss << j.task << ':' << j.job << ':' << j.preemptions << ':'
               << j.completionSeconds << '\n';
        return ss.str();
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(Scheduler, RateMonotonicPolicyAlsoMeetsDeadlines)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RateMonotonic;
    MultiTaskScheduler sched(cfg);
    // RM's feasible region is smaller than EDF's: use moderate load.
    addAll(sched, trioDefs(0.6));
    ASSERT_EQ(sched.admissionError(), "");

    const ScheduleOutcome out = sched.run(8);
    EXPECT_EQ(out.deadlineMisses, 0);
    EXPECT_EQ(out.checkpointMisses, 0);
}

TEST(Scheduler, MaxRequestGovernorStaysSafe)
{
    // Running any task at (at least) its requested operating point is
    // deadline- and watchdog-safe; the max-request governor must not
    // introduce misses.
    SchedulerConfig cfg;
    cfg.governor = GovernorPolicy::MaxRequest;
    MultiTaskScheduler sched(cfg);
    addAll(sched, trioDefs(0.85));
    ASSERT_EQ(sched.admissionError(), "");

    const ScheduleOutcome out = sched.run(8);
    EXPECT_EQ(out.deadlineMisses, 0);
    for (int t = 0; t < sched.numTasks(); ++t)
        EXPECT_EQ(sched.taskStats(t).badChecksums, 0);
}

TEST(Scheduler, AdmissionRejectsOverload)
{
    // Utilization target far above 1: periods shrink below the
    // execution budgets, and admission must name the offender rather
    // than let run() miss deadlines.
    MultiTaskScheduler sched;
    addAll(sched, trioDefs(1.5));
    const std::string err = sched.admissionError();
    EXPECT_NE(err, "");

    // And near the boundary, the switch-overhead inflation and the
    // margin still reject a set whose true utilization is 0.995.
    MultiTaskScheduler tight;
    addAll(tight, flatTrioDefs(0.995));
    EXPECT_NE(tight.admissionError(), "");
}

TEST(Scheduler, AdmissionRejectsPinToMissingCoreOnOneCore)
{
    // One core is one partition: a pin to core 1 names a core that
    // does not exist, and is rejected exactly as on a multi-core chip.
    SchedulerConfig cfg;
    cfg.affinity = {-1, 1};
    MultiTaskScheduler sched(cfg);
    addAll(sched, trioDefs(0.85));
    const std::string err = sched.admissionError();
    EXPECT_NE(err.find("affinity: task 1 pinned to core 1 of a 1-core"),
              std::string::npos)
        << err;

    // Pins to the one core that exists are admitted.
    SchedulerConfig ok;
    ok.affinity = {0, -1, 0};
    MultiTaskScheduler pinned(ok);
    addAll(pinned, trioDefs(0.85));
    EXPECT_EQ(pinned.admissionError(), "");
}

TEST(Scheduler, StatsGroupsExportPerTaskCounters)
{
    MultiTaskScheduler sched;
    addAll(sched, trioDefs(0.85));
    ASSERT_EQ(sched.admissionError(), "");
    sched.run(4);

    StatSet set;
    sched.buildStats(set);
    std::ostringstream json;
    set.dumpJson(json);
    // Dotted group names nest: "sched.task0" exports as "task0"
    // inside the "sched" object.
    const std::string text = json.str();
    EXPECT_NE(text.find("\"sched\""), std::string::npos);
    EXPECT_NE(text.find("\"task0\""), std::string::npos);
    EXPECT_NE(text.find("\"task2\""), std::string::npos);
}

} // anonymous namespace
} // namespace visa
