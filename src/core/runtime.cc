#include "core/runtime.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cpu/rig.hh"
#include "sim/logging.hh"
#include "sim/prof/prof.hh"

namespace visa
{

namespace
{

/** Hard cap so runaway guest code cannot hang an experiment. */
constexpr Cycles runawayBudget = 20'000'000'000ULL;

} // anonymous namespace

DvsRuntime::DvsRuntime(Cpu &cpu, const Program &prog, MainMemory &mem,
                       const WcetTable &wcet, const DvsTable &dvs,
                       RuntimeConfig cfg)
    : cpu_(cpu), prog_(prog), mem_(mem), wcet_(wcet), dvs_(dvs),
      cfg_(std::move(cfg)), pets_(wcet.numSubtasks(), cfg_.petPolicy)
{
    if (cfg_.deadlineSeconds <= 0.0)
        fatal("runtime: deadline must be positive");
    // Seed PETs conservatively with the WCETs at the top setting: the
    // first tasks run fast and histories tighten the PETs from there.
    std::vector<std::uint64_t> seed;
    for (int k = 0; k < wcet.numSubtasks(); ++k)
        seed.push_back(wcet.subtaskCycles(k, dvs.maxFreq()));
    pets_.seed(seed);
    slackDist_.init(0, 1u << 16, 1u << 12);
}

void
DvsRuntime::buildStats(StatSet &set) const
{
    StatGroup &g = set.group("runtime");
    g.scalar("tasks", "task instances executed").set(
        static_cast<std::uint64_t>(stats_.tasks));
    g.scalar("checkpoint_misses", "missed-checkpoint recoveries")
        .set(static_cast<std::uint64_t>(stats_.checkpointMisses));
    g.scalar("deadline_misses", "deadline violations (must stay 0)")
        .set(static_cast<std::uint64_t>(stats_.deadlineMisses));
    g.scalar("aet_cycles_total",
             "sum of guest-reported sub-task AETs (all tasks)")
        .set(aetCyclesTotal_);
    g.scalar("restarts", "restart-based recoveries (Restart policy)")
        .set(static_cast<std::uint64_t>(stats_.restarts));
    g.scalar("restart_restore_cycles_total",
             "snapshot-restore cycles charged across all restarts")
        .set(restartRestoreCyclesTotal_);
    g.scalar("restart_pages_total",
             "memory pages rewritten across all restarts")
        .set(restartPagesTotal_);
    g.formula("checkpoint_miss_rate",
              [this] {
                  // Deliberately unguarded: 0/0 before any task ran is
                  // the stats package's finite-guard's job to clean up.
                  return static_cast<double>(stats_.checkpointMisses) /
                         static_cast<double>(stats_.tasks);
              },
              "missed checkpoints per task");
    g.distribution("checkpoint_slack_cycles",
                   "PET - AET detection slack at met checkpoints") =
        slackDist_;
}

void
DvsRuntime::switchFrequency(MHz f)
{
    const MHz old = cpu_.frequency();
    const Cycles now = cpu_.cycles();
    taskSeconds_ += static_cast<double>(now - epochStartCycles_) /
                    (old * 1e6);
    epochStartCycles_ = now;
    if (meter_)
        meter_->closeEpoch(old);
    VISA_TRACE(EventKind::FreqChange, now, old, f);
    cpu_.setFrequency(f);
}

void
DvsRuntime::writeWatchdogParams(const CheckpointPlan &plan)
{
    auto it = prog_.symbols.find("wdinc");
    if (it == prog_.symbols.end())
        fatal("runtime: program has no 'wdinc' parameter table but "
              "checkpointing is enabled");
    for (std::size_t i = 0; i < plan.increments.size(); ++i) {
        mem_.writeWord(it->second + static_cast<Addr>(4 * i),
                       static_cast<Word>(plan.increments[i]));
    }
}

void
DvsRuntime::disableWatchdogParams()
{
    auto it = prog_.symbols.find("wdinc");
    if (it == prog_.symbols.end())
        return;
    for (int i = 0; i < wcet_.numSubtasks(); ++i)
        mem_.writeWord(it->second + static_cast<Addr>(4 * i), 0);
}

TaskStats
DvsRuntime::runTask(bool induce_miss)
{
    beginInstance(induce_miss);
    while (!stepInstance(runawayBudget).completed) {
    }
    return finishInstance();
}

void
DvsRuntime::beginInstance(bool induce_miss)
{
    if (instanceActive_)
        fatal("runtime: beginInstance with an instance already active");
    const bool reeval =
        tasksRun_ == 0 ||
        (cfg_.reevalPeriod > 0 && tasksRun_ % cfg_.reevalPeriod == 0);
    if (reeval) {
        if (tasksRun_ > 0)
            pets_.reevaluate();
        current_ = chooseFrequencies();
        if (!current_.feasible)
            fatal("runtime: deadline %.3g ms infeasible",
                  cfg_.deadlineSeconds * 1e3);
        if (speculating_)
            plan_ = buildPlan();
        else
            plan_.reset();
    }

    inst_ = TaskStats{};
    inst_.fSpec = current_.fSpec;
    inst_.fRec = current_.fRec;
    inst_.speculating = speculating_;

    cpu_.resetForTask();

    Tracer *const tr = currentTracer();
    if (tr) {
        // The per-task cycle counter just reset; bank the previous
        // instances' cycles so the timeline stays monotonic.
        tr->setCycleOffset(tracedCycles_);
        tr->record(EventKind::TaskBegin, 0,
                   static_cast<std::uint64_t>(tasksRun_), current_.fSpec,
                   current_.fRec, cfg_.deadlineSeconds);
        if (reeval) {
            double pet_sum = 0.0;
            for (int k = 0; k < wcet_.numSubtasks(); ++k)
                pet_sum += pets_.petSeconds(k, current_.fSpec);
            tr->record(EventKind::FreqDecision, 0, current_.fSpec,
                       current_.fRec, speculating_ ? 1 : 0, pet_sum);
        }
    }

    prepare();

    Platform &platform = cpu_.platform();
    platform.clearWatchdog();
    platform.resetCycleCounter();
    platform.maskWatchdog(!(speculating_ && plan_));
    platform.setRecoveryFreq(current_.fRec);

    if (induce_miss)
        cpu_.flushCachesAndPredictors();

    taskSeconds_ = 0.0;
    epochStartCycles_ = 0;
    missedSubtask_ = -1;
    switchFrequency(current_.fSpec);

    // The DVS software (PET re-evaluation, EQ 1/EQ 4 solving) runs on
    // this processor every tenth task; charge its modeled cost.
    if (reeval && tasksRun_ > 0)
        cpu_.advanceIdle(cfg_.dvsSoftwareCycles);

    if (plan_ && speculating_) {
        writeWatchdogParams(*plan_);
        if (forceMiss_ && !plan_->increments.empty()) {
            // Overwrite only the first programmed increment: the
            // watchdog fires a few cycles into sub-task 1, well before
            // the EQ 1 checkpoint, where recovery budget is plentiful.
            const Cycles inc = forcedIncrement_
                ? forcedIncrement_
                : cfg_.armSlackCycles + 64;
            auto it = prog_.symbols.find("wdinc");
            mem_.writeWord(it->second, static_cast<Word>(inc));
        }
        if (tr)
            tr->record(EventKind::CheckpointArm, cpu_.cycles(),
                       plan_->increments.size(),
                       plan_->increments.empty()
                           ? 0
                           : static_cast<std::uint64_t>(
                                 plan_->increments[0]));
    } else {
        disableWatchdogParams();
    }
    forceMiss_ = false;

    armed_ = plan_.has_value() && speculating_;
    aets_.clear();
    platform.onAetReport = [this](int sub, std::uint64_t aet) {
        aets_.emplace_back(sub, aet);
        aetCyclesTotal_ += aet;
        if (prof::BlockProfiler *prof = prof::currentProfiler()) {
            prof::CheckpointRecord rec;
            rec.subtask = sub;
            rec.aet = aet;
            if (sub >= 1 && sub <= pets_.numSubtasks()) {
                rec.pet = pets_.petCycles(sub - 1);
                rec.wcet =
                    wcet_.subtaskCycles(sub - 1, cpu_.frequency());
            }
            rec.freq = cpu_.frequency();
            rec.stamp = tracedCycles_ + cpu_.cycles();
            prof->recordCheckpoint(rec);
        }
        if (armed_ && sub >= 1 && sub <= pets_.numSubtasks()) {
            const std::uint64_t pet = pets_.petCycles(sub - 1);
            const std::uint64_t slack = pet > aet ? pet - aet : 0;
            slackDist_.sample(slack);
            if (Tracer *t = currentTracer())
                t->record(EventKind::CheckpointHit, cpu_.cycles(),
                          static_cast<std::uint64_t>(sub), aet, pet,
                          static_cast<double>(slack));
        }
    };

    // Restart policy: snapshot at instance begin (covers a miss inside
    // sub-task 1) and again at every sub-task boundary.
    snap_.valid = false;
    if (cfg_.recoveryPolicy == RecoveryPolicy::Restart) {
        takeSnapshot(0);
        platform.onSubtaskBegin = [this](int sub) { takeSnapshot(sub); };
    } else {
        platform.onSubtaskBegin = nullptr;
    }

    instanceCycles_ = 0;
    instanceActive_ = true;
}

void
DvsRuntime::takeSnapshot(int subtask)
{
    snap_.subtask = subtask;
    snap_.arch = cpu_.arch();
    snap_.pages.clear();
    const std::size_t page_bytes = MainMemory::pageBytes();
    for (Addr base : mem_.pageBases()) {
        const std::uint8_t *p = mem_.peekPage(base);
        snap_.pages.emplace_back(
            base, std::vector<std::uint8_t>(p, p + page_bytes));
    }
    snap_.valid = true;
}

std::uint64_t
DvsRuntime::restoreSnapshot()
{
    const std::size_t page_bytes = MainMemory::pageBytes();
    std::uint64_t rewritten = 0;
    for (const auto &[base, bytes] : snap_.pages) {
        const std::uint8_t *cur = mem_.peekPage(base);
        if (cur && std::memcmp(cur, bytes.data(), page_bytes) == 0)
            continue;
        // writeBytes bumps the code-page generation counters when the
        // page is text, so the pipelines' block caches resync.
        mem_.writeBytes(base, bytes.data(), page_bytes);
        ++rewritten;
    }
    // Pages the task materialized after the snapshot read as zero in
    // it (snap_.pages is sorted: pageBases() sorts).
    std::vector<std::uint8_t> zeros;
    for (Addr base : mem_.pageBases()) {
        auto it = std::lower_bound(
            snap_.pages.begin(), snap_.pages.end(), base,
            [](const auto &p, Addr b) { return p.first < b; });
        if (it != snap_.pages.end() && it->first == base)
            continue;
        const std::uint8_t *cur = mem_.peekPage(base);
        if (!cur || std::all_of(cur, cur + page_bytes,
                                [](std::uint8_t b) { return b == 0; }))
            continue;
        if (zeros.empty())
            zeros.assign(page_bytes, 0);
        mem_.writeBytes(base, zeros.data(), page_bytes);
        ++rewritten;
    }
    cpu_.arch() = snap_.arch;
    return rewritten;
}

void
DvsRuntime::restartFromSnapshot()
{
    if (!snap_.valid)
        return;
    const std::uint64_t pages = restoreSnapshot();
    // The restore cost is charged at the (already-switched) recovery
    // frequency — the same term solveRestartSpeculation budgets.
    cpu_.advanceIdle(cfg_.restartRestoreCycles);
    ++stats_.restarts;
    restartRestoreCyclesTotal_ += cfg_.restartRestoreCycles;
    restartPagesTotal_ += pages;
    VISA_TRACE(EventKind::RecoveryRestart, cpu_.cycles(),
               static_cast<std::uint64_t>(snap_.subtask),
               cfg_.restartRestoreCycles, pages);
}

void
DvsRuntime::foldOpenEpoch()
{
    const Cycles now = cpu_.cycles();
    taskSeconds_ += static_cast<double>(now - epochStartCycles_) /
                    (cpu_.frequency() * 1e6);
    epochStartCycles_ = now;
}

void
DvsRuntime::handleMiss()
{
    Platform &platform = cpu_.platform();
    DPRINTF("Runtime",
            "missed checkpoint in sub-task %d of task %d; "
            "recovering\n",
            platform.currentSubtask(), tasksRun_);
    inst_.missedCheckpoint = true;
    missedSubtask_ = platform.currentSubtask();
    inst_.missedSubtask = missedSubtask_;
    ++stats_.checkpointMisses;
    if (Tracer *tr = currentTracer()) {
        tr->record(EventKind::WatchdogFire, cpu_.cycles(),
                   static_cast<std::uint64_t>(missedSubtask_));
        tr->record(EventKind::CheckpointMiss, cpu_.cycles(),
                   static_cast<std::uint64_t>(missedSubtask_),
                   static_cast<std::uint64_t>(tasksRun_));
    }
    platform.maskWatchdog(true);
    recover();
}

StepResult
DvsRuntime::stepInstance(Cycles max_cycles)
{
    if (!instanceActive_)
        fatal("runtime: stepInstance without an active instance");
    StepResult sr;
    const Cycles start_cycles = cpu_.cycles();
    const double start_seconds = taskSeconds_;
    Cycles remaining = max_cycles ? max_cycles : 1;
    for (;;) {
        RunResult res = cpu_.run(remaining);
        if (res.reason == StopReason::Halted) {
            sr.completed = true;
            break;
        }
        if (res.reason == StopReason::WatchdogExpired) {
            handleMiss();
            sr.recovered = true;
            // Recovery itself may exhaust the slice (drain +
            // reconfiguration cycles are simulated, not requested).
            const Cycles used = cpu_.cycles() - start_cycles;
            if (used >= max_cycles)
                break;
            remaining = max_cycles - used;
            continue;
        }
        break;    // CycleBudget: a normal preemption point
    }
    sr.ranCycles = cpu_.cycles() - start_cycles;
    instanceCycles_ += sr.ranCycles;
    if (!sr.completed && instanceCycles_ >= runawayBudget)
        fatal("runtime: task exceeded the runaway cycle budget");
    foldOpenEpoch();
    sr.ranSeconds = taskSeconds_ - start_seconds;
    return sr;
}

StepResult
DvsRuntime::preemptDrain()
{
    StepResult sr;
    if (!instanceActive_)
        return sr;
    const Cycles start_cycles = cpu_.cycles();
    const double start_seconds = taskSeconds_;
    const DrainResult d = cpu_.drainForPreemption();
    if (d.watchdogExpired) {
        handleMiss();
        sr.recovered = true;
    }
    sr.ranCycles = cpu_.cycles() - start_cycles;
    instanceCycles_ += sr.ranCycles;
    foldOpenEpoch();
    sr.ranSeconds = taskSeconds_ - start_seconds;
    return sr;
}

TaskStats
DvsRuntime::finishInstance()
{
    if (!instanceActive_)
        fatal("runtime: finishInstance without an active instance");
    Platform &platform = cpu_.platform();
    platform.onAetReport = nullptr;
    platform.onSubtaskBegin = nullptr;

    // Close the final epoch.
    foldOpenEpoch();
    const MHz final_freq = cpu_.frequency();
    if (meter_)
        meter_->closeEpoch(final_freq);

    TaskStats ts = inst_;
    ts.completionSeconds = taskSeconds_;
    ts.deadlineMet = taskSeconds_ <= cfg_.deadlineSeconds + 1e-12;
    ts.retired = cpu_.retired();
    ts.checksum = platform.lastChecksum();
    ts.checksumReported = platform.checksumReported();

    // Park at the floor frequency until the period ends (§5.2).
    if (meter_ && ts.deadlineMet) {
        MHz idle = cfg_.idleFreq ? cfg_.idleFreq : dvs_.minFreq();
        meter_->accountIdle(cfg_.deadlineSeconds - taskSeconds_, idle);
    }

    // Record AET histories; simple-mode portions are scaled (§4.3).
    for (auto [sub, aet] : aets_) {
        double v = static_cast<double>(aet);
        if (scaleAllAets_ ||
            (missedSubtask_ >= 1 && sub >= missedSubtask_))
            v *= recoveryAetScale_;
        if (sub >= 1 && sub <= pets_.numSubtasks())
            pets_.record(sub - 1,
                         static_cast<std::uint64_t>(std::llround(v)));
    }

    if (Tracer *tr = currentTracer())
        tr->record(EventKind::TaskEnd, cpu_.cycles(),
                   static_cast<std::uint64_t>(tasksRun_),
                   ts.deadlineMet ? 1 : 0, ts.missedCheckpoint ? 1 : 0,
                   taskSeconds_);
    tracedCycles_ += cpu_.cycles();

    ++tasksRun_;
    ++stats_.tasks;
    stats_.totalBusySeconds += taskSeconds_;
    if (!ts.deadlineMet)
        ++stats_.deadlineMisses;
    instanceActive_ = false;
    return ts;
}

// ---- VISA framework on the complex processor ----

FreqPair
VisaComplexRuntime::chooseFrequencies()
{
    // Restart recovery re-executes the mispredicted sub-task, so its
    // admission bound carries the snapshot-restore overhead on top of
    // EQ 4 (DESIGN.md §11).
    FreqPair pair =
        cfg_.recoveryPolicy == RecoveryPolicy::Restart
            ? solveRestartSpeculation(wcet_, pets_, dvs_,
                                      cfg_.deadlineSeconds,
                                      cfg_.ovhdSeconds,
                                      cfg_.overheadCyclesAtFspec(),
                                      cfg_.restartRestoreCycles)
            : solveVisaSpeculation(wcet_, pets_, dvs_,
                                   cfg_.deadlineSeconds, cfg_.ovhdSeconds,
                                   cfg_.overheadCyclesAtFspec());
    if (pair.feasible) {
        speculating_ = true;
        fallbackSimple_ = false;
        scaleAllAets_ = false;
        return pair;
    }
    // EQ 4 infeasible with the current PETs: attempt the task in the
    // explicitly-safe configuration (simple mode at a statically
    // sufficient frequency). PET histories recorded meanwhile let a
    // later re-evaluation switch speculation back on.
    MHz fstatic = solveStaticFrequency(wcet_, dvs_, cfg_.deadlineSeconds);
    if (fstatic == 0)
        return {};
    speculating_ = false;
    fallbackSimple_ = true;
    scaleAllAets_ = true;    // AETs will be simple-mode cycles
    return {true, fstatic, fstatic};
}

CheckpointPlan
VisaComplexRuntime::buildPlan()
{
    // EQ 1 checkpoints at the recovery frequency (§4.2). The drain
    // budget shifts every checkpoint earlier; the DVS software and
    // snippet prologue delay the arming.
    double drain_s = static_cast<double>(cfg_.drainBudgetCycles) /
                     (current_.fSpec * 1e6);
    // Restart recovery additionally pays the snapshot restore before
    // re-execution begins; shift every checkpoint earlier by it.
    double restore_s =
        cfg_.recoveryPolicy == RecoveryPolicy::Restart
            ? static_cast<double>(cfg_.restartRestoreCycles) /
                  (current_.fRec * 1e6)
            : 0.0;
    return computeCheckpoints(wcet_, current_.fRec, current_.fSpec,
                              cfg_.deadlineSeconds - drain_s - restore_s,
                              cfg_.ovhdSeconds,
                              cfg_.dvsSoftwareCycles +
                                  cfg_.armSlackCycles);
}

void
VisaComplexRuntime::recover()
{
    // Drain the out-of-order engine into simple mode (cycles are
    // simulated), then switch to the recovery frequency and charge the
    // fixed reconfiguration overhead.
    ooo_.switchToSimple();
    switchFrequency(current_.fRec);
    const Cycles ovhd_cycles = static_cast<Cycles>(
        std::ceil(cfg_.ovhdSeconds * current_.fRec * 1e6));
    cpu_.advanceIdle(ovhd_cycles);
    // Restart policy: discard everything the complex core did since
    // the sub-task boundary and re-execute it in the trusted simple
    // mode — a state-recovery guarantee on top of the paper's timing
    // guarantee (DESIGN.md §11).
    if (cfg_.recoveryPolicy == RecoveryPolicy::Restart)
        restartFromSnapshot();
}

void
VisaComplexRuntime::prepare()
{
    if (fallbackSimple_)
        ooo_.switchToSimple();
    else
        ooo_.switchToComplex();
}

// ---- explicitly-safe simple-fixed processor ----

FreqPair
SimpleFixedRuntime::chooseFrequencies()
{
    // Restart recovery needs the VISA WCET tail EQ 4 provides (the
    // re-executed sub-task runs at f_rec); EQ 2 charges the
    // mispredicted sub-task at f_spec and cannot absorb it.
    if (cfg_.recoveryPolicy == RecoveryPolicy::Restart)
        fatal("runtime: RecoveryPolicy::Restart requires the VISA "
              "complex runtime");
    // Frequency speculation is used only when it lowers the frequency
    // below the static requirement (paper §6.2).
    MHz fstatic = solveStaticFrequency(wcet_, dvs_, cfg_.deadlineSeconds);
    // The per-sub-task detection slack (see buildPlan) can let every
    // sub-task overrun its PET by armSlackCycles undetected; budget it.
    FreqPair spec = solveConventionalSpeculation(
        wcet_, pets_, dvs_, cfg_.deadlineSeconds, cfg_.ovhdSeconds,
        cfg_.dvsSoftwareCycles +
            static_cast<Cycles>(wcet_.numSubtasks()) *
                cfg_.armSlackCycles);
    if (spec.feasible && (fstatic == 0 || spec.fSpec < fstatic)) {
        speculating_ = true;
        return spec;
    }
    if (fstatic != 0) {
        speculating_ = false;
        return {true, fstatic, fstatic};
    }
    return {};
}

CheckpointPlan
SimpleFixedRuntime::buildPlan()
{
    // Conventional frequency speculation (Rotenberg): the watchdog
    // detects a sub-task exceeding its *predicted* execution time —
    // each sub-task adds its own PET budget. EQ 2 already charges the
    // full WCET of the mispredicted sub-task at f_spec, so detection
    // inside the sub-task is safe by construction.
    // Each budget carries a small slack covering the instrumentation
    // snippet between the AET measurement and the watchdog advance;
    // otherwise a PET equal to the historical maximum expires inside
    // the snippet on every typical task.
    CheckpointPlan plan;
    double t = 0.0;
    for (int i = 0; i < wcet_.numSubtasks(); ++i) {
        std::uint64_t inc = pets_.petCycles(i) + cfg_.armSlackCycles;
        plan.increments.push_back(static_cast<std::int64_t>(inc));
        t += pets_.petSeconds(i, current_.fSpec);
        plan.checkpoints.push_back(t);
    }
    return plan;
}

void
SimpleFixedRuntime::recover()
{
    switchFrequency(current_.fRec);
    const Cycles ovhd_cycles = static_cast<Cycles>(
        std::ceil(cfg_.ovhdSeconds * current_.fRec * 1e6));
    cpu_.advanceIdle(ovhd_cycles);
}

void
SimpleFixedRuntime::prepare()
{
}

std::vector<std::uint64_t>
profileComplexAets(const Program &prog, int num_subtasks, double margin,
                   MHz freq)
{
    Rig rig(prog);
    OooCpu &cpu = rig.build<OooCpu>(std::nullopt, false, freq);
    std::vector<std::uint64_t> aets(
        static_cast<std::size_t>(num_subtasks), 0);
    rig.platform().onAetReport = [&](int sub, std::uint64_t aet) {
        if (sub >= 1 && sub <= num_subtasks) {
            aets[static_cast<std::size_t>(sub - 1)] =
                static_cast<std::uint64_t>(
                    std::ceil(static_cast<double>(aet) * margin));
        }
    };
    auto res = cpu.run(20'000'000'000ULL);
    if (res.reason != StopReason::Halted)
        fatal("profileComplexAets: program did not halt");
    return aets;
}

} // namespace visa
