#include "core/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <numeric>

#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace visa
{

namespace
{

std::string
formatted(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

constexpr double never = std::numeric_limits<double>::infinity();

} // anonymous namespace

/** One admitted task: its private rig plus the scheduler's job state. */
struct MultiTaskScheduler::ManagedTask
{
    SchedTaskDef def;

    // The rig: every task keeps its own cycle/watchdog/memory domain,
    // so preemption freezes exactly this task's watchdog and nothing
    // else (member order is construction order; the CPU references
    // mem/platform/memctrl).
    MainMemory mem;
    Platform platform;
    MemController memctrl;
    std::unique_ptr<Cpu> cpu;
    std::unique_ptr<DvsRuntime> rt;

    // Job state of the current period.
    int released = 0;              ///< jobs released so far
    int done = 0;                  ///< jobs completed so far
    bool ready = false;            ///< a released job awaits completion
    double releaseNominal = 0.0;   ///< r_k of the current job
    double deadline = 0.0;         ///< absolute deadline r_k + T
    int jobPreemptions = 0;
    double jobBusy = 0.0;
    /** Wall time from which the current job may (re)start: its release,
     *  or the preemption point it was last suspended at (a core must
     *  not run a job from its local future). */
    double avail = 0.0;
    int host = -1;    ///< core its context is live on (-1 = none)

    SchedTaskStats stats;
};

/**
 * One core's engine state. Under the concurrent driver only the core's
 * own arm writes it — and its tasks, its bus lane and its trace ring —
 * so the cores of one epoch may run on concurrent worker threads.
 */
struct MultiTaskScheduler::CoreState
{
    int id = 0;
    /** Tasks this core may run, ascending: its partition, or every
     *  task under global placement. */
    std::vector<int> tasks;
    double w = 0.0;        ///< local wall clock
    int onCore = -1;       ///< task dispatched here (-1 = idle)
    int lastOn = -1;       ///< last task whose context is loaded
    MHz freq = 0;          ///< this DVS domain's clock (0 = unset)
    bool done = false;     ///< every job of its tasks completed
    int dispatches = 0;
    int contextSwitches = 0;
    double busySeconds = 0.0;
    double idleSeconds = 0.0;
    /** Counter and job sinks: the schedule's own under the serial
     *  driver (booked in slice order), this core's private shares
     *  under the concurrent one (merged in core order at the end). */
    ScheduleOutcome *out = nullptr;
    std::vector<JobRecord> *jobs = nullptr;
    ScheduleOutcome share;
    std::vector<JobRecord> jobList;
    Tracer *sink = nullptr;    ///< the caller's tracer, or this core's ring
};

MultiTaskScheduler::MultiTaskScheduler(SchedulerConfig cfg)
    : cfg_(cfg)
{
}

MultiTaskScheduler::~MultiTaskScheduler() = default;

int
MultiTaskScheduler::addTask(const SchedTaskDef &def)
{
    if (!def.program || !def.wcet || !def.dvs)
        fatal("scheduler: task '%s' needs program, wcet and dvs",
              def.name.c_str());
    if (def.periodSeconds <= 0.0)
        fatal("scheduler: task '%s' needs a positive period",
              def.name.c_str());
    auto t = std::make_unique<ManagedTask>();
    t->def = def;
    t->mem.loadProgram(*def.program);
    if (def.complexMachine) {
        auto cpu = std::make_unique<OooCpu>(*def.program, t->mem,
                                            t->platform, t->memctrl);
        t->rt = std::make_unique<VisaComplexRuntime>(
            *cpu, *def.program, t->mem, *def.wcet, *def.dvs, def.runtime);
        t->cpu = std::move(cpu);
    } else {
        auto cpu = std::make_unique<SimpleCpu>(*def.program, t->mem,
                                               t->platform, t->memctrl);
        t->rt = std::make_unique<SimpleFixedRuntime>(
            *cpu, *def.program, t->mem, *def.wcet, *def.dvs, def.runtime);
        t->cpu = std::move(cpu);
    }
    t->stats.minSlackSeconds = def.periodSeconds;
    tasks_.push_back(std::move(t));
    return numTasks() - 1;
}

double
MultiTaskScheduler::switchSeconds(MHz f) const
{
    return static_cast<double>(cfg_.contextSwitchCycles) / (f * 1e6);
}

double
MultiTaskScheduler::nominalRelease(const ManagedTask &t) const
{
    return t.def.phaseSeconds + t.released * t.def.periodSeconds;
}

bool
MultiTaskScheduler::pendingRelease(const ManagedTask &t) const
{
    // A task re-releases only after its previous job completed (jobs of
    // one task do not overlap; an overrun shows up as a deadline miss).
    return t.released < jobsPerTask_ && t.done == t.released && !t.ready;
}

double
MultiTaskScheduler::interferenceFactor() const
{
    if (cfg_.cores <= 1)
        return 1.0;
    // Worst case, every shared-memory access in B_i queues behind one
    // in-flight access from each of the other m-1 cores; memStallShare
    // bounds the fraction of B_i that is such accesses.
    const double perAccess = cfg_.bus.memAccessNs > 0.0
        ? cfg_.bus.busOccupancyNs / cfg_.bus.memAccessNs
        : 0.0;
    return 1.0 + (cfg_.cores - 1) * cfg_.memStallShare * perAccess;
}

double
MultiTaskScheduler::inflatedDemand(int task) const
{
    const SchedTaskDef &d =
        tasks_[static_cast<std::size_t>(task)]->def;
    const double sw = 2.0 * switchSeconds(d.dvs->minFreq());
    return (d.runtime.deadlineSeconds * interferenceFactor() + sw) /
           (1.0 - cfg_.utilizationMargin);
}

std::vector<int>
MultiTaskScheduler::partitionedAssignment() const
{
    const int m = cfg_.cores;
    std::vector<int> assign(static_cast<std::size_t>(numTasks()), -1);
    std::vector<double> load(static_cast<std::size_t>(m), 0.0);
    for (int i = 0; i < numTasks(); ++i) {
        const double u = inflatedDemand(i) /
                         tasks_[static_cast<std::size_t>(i)]
                             ->def.periodSeconds;
        int core;
        if (i < static_cast<int>(cfg_.affinity.size()) &&
            cfg_.affinity[static_cast<std::size_t>(i)] >= 0) {
            core = cfg_.affinity[static_cast<std::size_t>(i)];
        } else {
            // Worst-fit: the least-loaded core; strict < keeps the
            // lowest id on ties, so placement is deterministic.
            core = 0;
            for (int c = 1; c < m; ++c)
                if (load[static_cast<std::size_t>(c)] <
                    load[static_cast<std::size_t>(core)])
                    core = c;
        }
        assign[static_cast<std::size_t>(i)] = core;
        load[static_cast<std::size_t>(core)] += u;
    }
    return assign;
}

std::string
MultiTaskScheduler::admissionError() const
{
    if (tasks_.empty())
        return "no tasks";
    if (cfg_.cores < 1)
        return "cores must be >= 1";
    for (const auto &tp : tasks_) {
        const SchedTaskDef &d = tp->def;
        const double budget = d.runtime.deadlineSeconds;
        if (budget > d.periodSeconds)
            return formatted("task '%s': budget %.3g ms exceeds its "
                             "period %.3g ms",
                             d.name.c_str(), budget * 1e3,
                             d.periodSeconds * 1e3);
        // Single-task feasibility of the budget: the task must have a
        // safe schedule within B_i on its own machine — statically, or
        // by frequency speculation with conservatively seeded PETs.
        bool feasible =
            solveStaticFrequency(*d.wcet, *d.dvs, budget) != 0;
        if (!feasible) {
            PetEstimator pets(d.wcet->numSubtasks(),
                              d.runtime.petPolicy);
            std::vector<std::uint64_t> seed;
            for (int k = 0; k < d.wcet->numSubtasks(); ++k)
                seed.push_back(
                    d.wcet->subtaskCycles(k, d.dvs->maxFreq()));
            pets.seed(seed);
            const FreqPair pair = d.complexMachine
                ? solveVisaSpeculation(
                      *d.wcet, pets, *d.dvs, budget, d.runtime.ovhdSeconds,
                      d.runtime.dvsSoftwareCycles +
                          d.runtime.drainBudgetCycles)
                : solveConventionalSpeculation(
                      *d.wcet, pets, *d.dvs, budget, d.runtime.ovhdSeconds,
                      d.runtime.dvsSoftwareCycles +
                          static_cast<Cycles>(d.wcet->numSubtasks()) *
                              d.runtime.armSlackCycles);
            feasible = pair.feasible;
        }
        if (!feasible)
            return formatted("task '%s': budget %.3g ms is infeasible "
                             "even at the top operating point",
                             d.name.c_str(), budget * 1e3);
    }

    // Compose the per-task feasibility above with a placement-aware
    // test over demands inflated by the cross-core shared-memory
    // interference bound (exactly 1 on one core). Demand per job is the
    // budget plus two context switches (in and out), costed at the
    // slowest clock the governor could pick; the configured margin
    // inflates demand rather than deflating the bound, so the reported
    // utilization stays recognizable.
    const int m = cfg_.cores;
    for (std::size_t i = 0; i < cfg_.affinity.size(); ++i)
        if (cfg_.affinity[i] >= m)
            return formatted("affinity: task %d pinned to core %d of a "
                             "%d-core chip",
                             static_cast<int>(i), cfg_.affinity[i], m);
    if (m > 1 && cfg_.placement == PlacementPolicy::Global) {
        if (cfg_.policy != SchedPolicy::Edf)
            return "global placement supports EDF only";
        double total = 0.0;
        double umax = 0.0;
        for (int i = 0; i < numTasks(); ++i) {
            const double u =
                inflatedDemand(i) /
                tasks_[static_cast<std::size_t>(i)]->def.periodSeconds;
            if (u > 1.0)
                return formatted(
                    "G-EDF: task '%s': interference-inflated "
                    "utilization %.3f exceeds 1",
                    tasks_[static_cast<std::size_t>(i)]
                        ->def.name.c_str(),
                    u);
            total += u;
            umax = std::max(umax, u);
        }
        const double bound = m - (m - 1) * umax;
        if (total > bound)
            return formatted("G-EDF: inflated utilization %.3f exceeds "
                             "the GFB bound %.3f (m=%d, Umax=%.3f)",
                             total, bound, m, umax);
        return "";
    }
    const std::vector<int> assign = partitionedAssignment();
    for (int c = 0; c < m; ++c) {
        std::vector<PeriodicTask> part;
        for (int i = 0; i < numTasks(); ++i)
            if (assign[static_cast<std::size_t>(i)] == c)
                part.push_back(
                    {inflatedDemand(i),
                     tasks_[static_cast<std::size_t>(i)]
                         ->def.periodSeconds});
        if (part.empty())
            continue;
        if (cfg_.policy == SchedPolicy::Edf) {
            if (!edfSchedulable(part))
                return formatted("P-EDF: core %d: interference-inflated "
                                 "utilization %.3f exceeds 1",
                                 c, utilization(part));
        } else if (!rmResponseTimeFeasible(part)) {
            return formatted("P-RM: core %d: response-time analysis "
                             "rejects the partition (utilization %.3f)",
                             c, utilization(part));
        }
    }
    return "";
}

ScheduleOutcome
MultiTaskScheduler::run(int jobs_per_task)
{
    if (jobs_per_task <= 0)
        fatal("scheduler: jobs_per_task must be positive");
    const std::string err = admissionError();
    if (!err.empty())
        fatal("scheduler: task set rejected: %s", err.c_str());
    const int m = cfg_.cores;
    const bool partitioned =
        cfg_.placement == PlacementPolicy::Partitioned;
    jobsPerTask_ = jobs_per_task;
    jobs_.clear();
    outcome_ = ScheduleOutcome{};
    if (m > 1) {
        bus_ = std::make_unique<chip::ChipInterconnect>(m, cfg_.bus);
        assignment_ = partitioned
            ? partitionedAssignment()
            : std::vector<int>(static_cast<std::size_t>(numTasks()), -1);
    }

    // Runaway guard: an admitted set completes well within one extra
    // hyperperiod of the last release.
    horizon_ = 1e-3;
    for (const auto &t : tasks_)
        horizon_ = std::max(horizon_,
                            t->def.phaseSeconds +
                                (jobs_per_task + 2) * t->def.periodSeconds);
    horizon_ = 10.0 * horizon_ + 1.0;

    const bool concurrent = m > 1 && partitioned;
    cores_ = std::vector<CoreState>(static_cast<std::size_t>(m));
    for (int id = 0; id < m; ++id) {
        CoreState &c = cores_[static_cast<std::size_t>(id)];
        c.id = id;
        c.out = concurrent ? &c.share : &outcome_;
        c.jobs = concurrent ? &c.jobList : &jobs_;
        for (int i = 0; i < numTasks(); ++i) {
            const int a = m > 1 ? assignment_[static_cast<std::size_t>(i)]
                                : -1;
            if (a < 0 || a == id)
                c.tasks.push_back(i);
        }
    }
    for (auto &t : tasks_) {
        t->avail = 0.0;
        t->host = -1;
    }
    if (concurrent)
        runConcurrent();
    else
        runSerial();

    for (const CoreState &c : cores_)
        outcome_.wallSeconds = std::max(outcome_.wallSeconds, c.w);
    // The rigs outlive this run; detach them from the bus (the bus
    // itself stays alive for buildStats).
    for (auto &t : tasks_)
        t->memctrl.attachBus(nullptr);
    return outcome_;
}

/**
 * The serial driver (global placement, and every single-core run):
 * every core keeps its own wall clock (they are independent clock
 * domains), and the chip is stepped by always letting the lowest-id
 * core with runnable work at the earliest local time run one slice.
 * Releases are observed lazily against each core's own clock — a core
 * never sees a job released, or a migrated job suspended, in its local
 * future — which keeps the interleaving a pure function of the task set.
 */
void
MultiTaskScheduler::runSerial()
{
    const int m = cfg_.cores;
    Tracer *const tr = currentTracer();
    for (CoreState &c : cores_)
        c.sink = tr;
    std::vector<int> order(static_cast<std::size_t>(m));
    std::iota(order.begin(), order.end(), 0);
    // Every core of this driver may run every task, so core 0's view
    // of completion is the whole schedule's.
    while (!finished(cores_[0])) {
        // Visit cores in (local wall, id) order; the first one with a
        // runnable job executes one slice.
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            const double wa = cores_[static_cast<std::size_t>(a)].w;
            const double wb = cores_[static_cast<std::size_t>(b)].w;
            return wa < wb || (wa == wb && a < b);
        });
        CoreState *core = nullptr;
        int next = -1;
        for (int id : order) {
            CoreState &c = cores_[static_cast<std::size_t>(id)];
            releaseDue(c);
            if ((next = pick(c)) >= 0) {
                core = &c;
                break;
            }
        }

        if (!core) {
            // Every core is idle at its local time: advance each to its
            // next local event (a fresh release, or a suspended job
            // becoming available to it).
            bool advanced = false;
            for (CoreState &c : cores_) {
                const double before = c.w;
                idleTo(c, never);
                advanced = advanced || c.w > before;
            }
            if (!advanced)
                fatal("scheduler: idle with no pending release");
            continue;
        }

        // One bus epoch per slice (DESIGN.md §13): with one core
        // running, its lane is the authoritative state plus its own
        // requests, and the drain replays them in issue order.
        if (bus_)
            bus_->beginEpoch();
        if (tr && m > 1)
            tr->setCoreId(core->id);
        step(*core, next, never);
        if (bus_)
            bus_->drainEpoch();
    }
    if (tr && m > 1)
        tr->setCoreId(-1);
}

/**
 * The concurrent driver (partitioned, m > 1): every core owns a
 * disjoint partition, so the per-core schedules are independent except
 * for shared-bus contention (resolved by epoch-buffered routing: within
 * one epochSeconds quantum a core sees only the barrier-frozen bus plus
 * its own traffic, and the barrier drain replays all requests in
 * (ns, core id) order) and the output streams (per-core counter
 * shares, job lists and trace rings, merged in deterministic order at
 * the barriers / at the end). Every per-core quantity has exactly one
 * writer, and nothing a core computes depends on how the host
 * interleaved the cores, so the result is bit-identical for any
 * VISA_THREADS setting, including 1.
 */
void
MultiTaskScheduler::runConcurrent()
{
    const double epoch =
        cfg_.epochSeconds > 0.0 ? cfg_.epochSeconds : 1e-3;
    Tracer *const tr = currentTracer();
    std::vector<Tracer> rings;
    if (tr) {
        rings.reserve(cores_.size());
        for (CoreState &c : cores_) {
            rings.emplace_back(tr->capacity());
            rings.back().setKindMask(tr->kindMask());
            rings.back().setCoreId(c.id);
            c.sink = &rings.back();
        }
    }

    for (double epochStart = 0.0;; epochStart += epoch) {
        if (std::all_of(cores_.begin(), cores_.end(),
                        [](const CoreState &c) { return c.done; }))
            break;
        if (epochStart > horizon_)
            fatal("scheduler: epoch clock %.3g s exceeded the runaway "
                  "horizon %.3g s",
                  epochStart, horizon_);
        const double epochEnd = epochStart + epoch;
        bus_->beginEpoch();
        parallelFor(cores_.size(), [&](std::size_t i) {
            CoreState &c = cores_[i];
            Tracer *const prev = c.sink ? installTracer(c.sink) : nullptr;
            while (!(c.done = finished(c)) && c.w < epochEnd) {
                releaseDue(c);
                const int next = pick(c);
                if (next >= 0) {
                    step(c, next, epochEnd);
                    continue;
                }
                const double tn = idleTo(c, epochEnd);
                if (!std::isfinite(tn))
                    fatal("scheduler: core %d idle with no pending "
                          "release",
                          c.id);
                if (tn > epochEnd)
                    break;    // nothing more until after the barrier
            }
            if (c.sink)
                installTracer(prev);
        });
        bus_->drainEpoch();
        if (tr)
            Tracer::mergeInto(*tr, rings);
    }

    // Deterministic merges, all in core order: counters summed; the job
    // lists (each ascending in completion) concatenated and stably
    // sorted, i.e. merged by (completion, core).
    for (const CoreState &c : cores_) {
        outcome_.jobs += c.share.jobs;
        outcome_.dispatches += c.share.dispatches;
        outcome_.preemptions += c.share.preemptions;
        outcome_.contextSwitches += c.share.contextSwitches;
        outcome_.freqChanges += c.share.freqChanges;
        outcome_.switchOverheadSeconds += c.share.switchOverheadSeconds;
        outcome_.idleSeconds += c.share.idleSeconds;
        outcome_.deadlineMisses += c.share.deadlineMisses;
        outcome_.checkpointMisses += c.share.checkpointMisses;
        jobs_.insert(jobs_.end(), c.jobList.begin(), c.jobList.end());
    }
    std::stable_sort(jobs_.begin(), jobs_.end(),
                     [](const JobRecord &a, const JobRecord &b) {
                         return a.completionSeconds < b.completionSeconds;
                     });
}

bool
MultiTaskScheduler::finished(const CoreState &c) const
{
    for (int i : c.tasks) {
        const ManagedTask &t = *tasks_[static_cast<std::size_t>(i)];
        if (t.released < jobsPerTask_ || t.done < t.released)
            return false;
    }
    return true;
}

void
MultiTaskScheduler::releaseDue(CoreState &c)
{
    for (int i : c.tasks) {
        ManagedTask &t = *tasks_[static_cast<std::size_t>(i)];
        if (!pendingRelease(t) || nominalRelease(t) > c.w + 1e-15)
            continue;
        t.releaseNominal = nominalRelease(t);
        t.deadline = t.releaseNominal + t.def.periodSeconds;
        t.ready = true;
        t.avail = t.releaseNominal;
        t.jobPreemptions = 0;
        t.jobBusy = 0.0;
        ++t.released;
        emit(c, EventKind::SchedRelease, i,
             static_cast<std::uint64_t>(t.released - 1), 0);
    }
}

int
MultiTaskScheduler::pick(const CoreState &c) const
{
    int best = -1;
    double best_key = 0.0;
    for (int i : c.tasks) {
        const ManagedTask &t = *tasks_[static_cast<std::size_t>(i)];
        if (!t.ready)
            continue;
        if (t.host != -1 && t.host != c.id)
            continue;    // its context is live on another core
        if (t.avail > c.w + 1e-15)
            continue;    // released/suspended in c's future
        const double key = cfg_.policy == SchedPolicy::Edf
            ? t.deadline
            : t.def.periodSeconds;
        // Strict < keeps the lowest task index on ties — the
        // deterministic tie-break the tests pin down.
        if (best < 0 || key < best_key) {
            best = i;
            best_key = key;
        }
    }
    return best;
}

double
MultiTaskScheduler::idleTo(CoreState &c, double barrier)
{
    double tn = never;
    for (int i : c.tasks) {
        const ManagedTask &t = *tasks_[static_cast<std::size_t>(i)];
        if (pendingRelease(t))
            tn = std::min(tn, nominalRelease(t));
        else if (t.ready && t.host == -1)
            tn = std::min(tn, t.avail);
    }
    const double target = std::min(tn, barrier);
    if (std::isfinite(target) && target > c.w) {
        c.idleSeconds += target - c.w;
        c.out->idleSeconds += target - c.w;
        c.w = target;
    }
    return tn;
}

void
MultiTaskScheduler::step(CoreState &c, int next, double barrier)
{
    ManagedTask &t = *tasks_[static_cast<std::size_t>(next)];
    if (c.onCore != next) {
        if (c.onCore >= 0) {
            // Retire the outgoing task's in-flight instructions; the
            // cycles are its own execution time. A watchdog expiry
            // surfacing here takes the recovery path before the task
            // is suspended.
            const int prev = c.onCore;
            ManagedTask &out = *tasks_[static_cast<std::size_t>(prev)];
            charge(c, prev, out.rt->preemptDrain());
            ++out.jobPreemptions;
            ++out.stats.preemptions;
            ++c.out->preemptions;
            // Suspended here: available to any core from this wall time
            // on (its context ships with its private rig).
            out.avail = c.w;
            out.host = -1;
            emit(c, EventKind::SchedPreempt, prev,
                 static_cast<std::uint64_t>(out.released - 1),
                 static_cast<std::uint64_t>(next));
        }
        if (!t.rt->instanceActive()) {
            const int job = t.released - 1;
            if (t.def.forceMissEvery > 0 &&
                job % t.def.forceMissEvery == 0)
                t.rt->forceNextMiss(t.def.forceMissIncrement);
            t.rt->beginInstance(t.def.induceMissEvery > 0 && job > 0 &&
                                job % t.def.induceMissEvery == 0);
        }
        // The governor resolves over this core's DVS domain: MaxRequest
        // maximizes over the ready tasks the core may run.
        const MHz requested = t.rt->requestedFrequency();
        MHz f = requested;
        if (cfg_.governor == GovernorPolicy::MaxRequest) {
            for (int i : c.tasks) {
                const ManagedTask &u = *tasks_[static_cast<std::size_t>(i)];
                if (u.ready && u.rt->instanceActive())
                    f = std::max(f, u.rt->requestedFrequency());
            }
        }
        if (f != requested)
            t.rt->overrideFrequency(f);
        if (c.freq != 0 && f != c.freq)
            ++c.out->freqChanges;
        c.freq = f;
        if (c.lastOn != next) {
            // Context-switch cost: wall time only, charged to no task's
            // CPU — it must not tick any watchdog.
            const double sw = switchSeconds(f);
            c.w += sw;
            c.out->switchOverheadSeconds += sw;
            ++c.out->contextSwitches;
            ++c.contextSwitches;
        }
        c.onCore = c.lastOn = next;
        t.host = c.id;
        ++c.out->dispatches;
        ++c.dispatches;
        emit(c, EventKind::SchedDispatch, next,
             static_cast<std::uint64_t>(t.released - 1),
             static_cast<std::uint64_t>(f));
    }
    if (bus_) {
        // Route the task's misses through this core's bus port and
        // re-anchor the bus clock to the core's wall; anchoring every
        // slice bounds cycle-to-ns drift to one quantum.
        t.memctrl.attachBus(bus_.get(), c.id);
        bus_->syncCore(c.id, c.w * 1e9, t.cpu->cycles());
    }

    // Run to the next scheduling point: the earliest release that could
    // preempt on this core, or the barrier, capped by the quantum.
    double nextEvent = barrier;
    for (int i : c.tasks) {
        const ManagedTask &u = *tasks_[static_cast<std::size_t>(i)];
        if (pendingRelease(u))
            nextEvent = std::min(nextEvent, nominalRelease(u));
    }
    Cycles budget = cfg_.quantumCycles;
    if (std::isfinite(nextEvent) && nextEvent > c.w) {
        const MHz f = t.cpu->frequency();
        const Cycles until = static_cast<Cycles>(
            std::ceil((nextEvent - c.w) * f * 1e6));
        budget = std::min(budget, std::max<Cycles>(until, 1));
    }
    const StepResult sr = t.rt->stepInstance(budget);
    charge(c, next, sr);

    if (sr.completed) {
        const TaskStats ts = t.rt->finishInstance();
        const JobRecord jr{next, t.released - 1, t.releaseNominal, c.w,
                           t.deadline, c.w <= t.deadline + 1e-12,
                           ts.missedCheckpoint, t.jobPreemptions,
                           t.jobBusy};
        c.jobs->push_back(jr);
        ++c.out->jobs;

        SchedTaskStats &st = t.stats;
        ++st.jobs;
        st.retired += ts.retired;
        if (!jr.deadlineMet) {
            ++st.deadlineMisses;
            ++c.out->deadlineMisses;
        }
        if (t.def.expectedChecksum &&
            (!ts.checksumReported ||
             ts.checksum != t.def.expectedChecksum))
            ++st.badChecksums;
        const double slack = t.deadline - c.w;
        if (st.jobs == 1 || slack < st.minSlackSeconds)
            st.minSlackSeconds = slack;
        st.maxResponseSeconds =
            std::max(st.maxResponseSeconds, c.w - t.releaseNominal);

        t.ready = false;
        ++t.done;
        c.onCore = t.host = -1;
        emit(c, EventKind::SchedComplete, next,
             static_cast<std::uint64_t>(jr.job), jr.deadlineMet ? 1 : 0);
    }

    if (c.w > horizon_)
        fatal("scheduler: core %d wall clock %.3g s exceeded the "
              "runaway horizon %.3g s",
              c.id, c.w, horizon_);
}

void
MultiTaskScheduler::charge(CoreState &c, int task, const StepResult &r)
{
    ManagedTask &t = *tasks_[static_cast<std::size_t>(task)];
    c.w += r.ranSeconds;
    c.busySeconds += r.ranSeconds;
    t.jobBusy += r.ranSeconds;
    t.stats.busySeconds += r.ranSeconds;
    if (r.recovered) {
        ++t.stats.checkpointMisses;
        ++c.out->checkpointMisses;
        emit(c, EventKind::SchedRecovery, task,
             static_cast<std::uint64_t>(
                 std::max(0, t.rt->activeMissedSubtask())),
             0);
    }
}

void
MultiTaskScheduler::emit(const CoreState &c, EventKind k, int task,
                         std::uint64_t b, std::uint64_t arg) const
{
    Tracer *const tr = c.sink;
    if (!tr)
        return;
    // Scheduler events carry the core's wall clock (integer nanoseconds
    // in the cycle field): per-task cycle domains are incomparable, and
    // the runtimes bank their own offsets into the tracer. Releases are
    // chip-level events and stay unstamped; on one core the caller's
    // core stamp is left alone.
    const Cycles off = tr->cycleOffset();
    const int prevCore = tr->coreId();
    tr->setCycleOffset(0);
    if (cfg_.cores > 1)
        tr->setCoreId(k == EventKind::SchedRelease ? -1 : c.id);
    tr->record(k, static_cast<Cycles>(std::llround(c.w * 1e9)),
               static_cast<std::uint64_t>(task), b, arg, c.w);
    tr->setCoreId(prevCore);
    tr->setCycleOffset(off);
}

const SchedTaskStats &
MultiTaskScheduler::taskStats(int task) const
{
    return tasks_.at(static_cast<std::size_t>(task))->stats;
}

const SchedTaskDef &
MultiTaskScheduler::taskDef(int task) const
{
    return tasks_.at(static_cast<std::size_t>(task))->def;
}

DvsRuntime &
MultiTaskScheduler::taskRuntime(int task)
{
    return *tasks_.at(static_cast<std::size_t>(task))->rt;
}

void
MultiTaskScheduler::buildStats(StatSet &set) const
{
    StatGroup &g = set.group("sched");
    g.scalar("tasks", "tasks in the set")
        .set(static_cast<std::uint64_t>(numTasks()));
    g.scalar("jobs", "jobs completed")
        .set(static_cast<std::uint64_t>(outcome_.jobs));
    g.scalar("dispatches", "dispatch decisions")
        .set(static_cast<std::uint64_t>(outcome_.dispatches));
    g.scalar("preemptions", "jobs suspended mid-execution")
        .set(static_cast<std::uint64_t>(outcome_.preemptions));
    g.scalar("context_switches", "running-task changes")
        .set(static_cast<std::uint64_t>(outcome_.contextSwitches));
    g.scalar("freq_changes", "governor-visible core clock changes")
        .set(static_cast<std::uint64_t>(outcome_.freqChanges));
    g.scalar("deadline_misses", "job deadline violations (must stay 0)")
        .set(static_cast<std::uint64_t>(outcome_.deadlineMisses));
    g.scalar("checkpoint_misses", "missed-checkpoint recoveries")
        .set(static_cast<std::uint64_t>(outcome_.checkpointMisses));
    g.formula("wall_seconds", [this] { return outcome_.wallSeconds; },
              "schedule length");
    g.formula("switch_overhead_seconds",
              [this] { return outcome_.switchOverheadSeconds; },
              "modeled context-switch cost");
    g.formula("idle_seconds", [this] { return outcome_.idleSeconds; },
              "core idle time");
    g.formula("utilization",
              [this] {
                  // Multi-core: total execution over m x makespan
                  // (per-core idle is measured against local walls, so
                  // the single-core identity does not generalize).
                  if (bus_) {
                      double busy = 0.0;
                      for (const CoreState &c : cores_)
                          busy += c.busySeconds;
                      return busy /
                             (static_cast<double>(cores_.size()) *
                              outcome_.wallSeconds);
                  }
                  return (outcome_.wallSeconds - outcome_.idleSeconds) /
                         outcome_.wallSeconds;
              },
              "busy fraction of the schedule");
    for (int i = 0; i < numTasks(); ++i) {
        const ManagedTask &t = *tasks_[i];
        StatGroup &tg = set.group("sched.task" + std::to_string(i));
        tg.scalar("jobs", "jobs completed (" + t.def.name + ")")
            .set(static_cast<std::uint64_t>(t.stats.jobs));
        tg.scalar("deadline_misses", "deadline violations (must stay 0)")
            .set(static_cast<std::uint64_t>(t.stats.deadlineMisses));
        tg.scalar("checkpoint_misses", "missed-checkpoint recoveries")
            .set(static_cast<std::uint64_t>(t.stats.checkpointMisses));
        tg.scalar("preemptions", "times suspended mid-job")
            .set(static_cast<std::uint64_t>(t.stats.preemptions));
        tg.scalar("bad_checksums", "checksum mismatches (must stay 0)")
            .set(static_cast<std::uint64_t>(t.stats.badChecksums));
        tg.scalar("retired", "instructions retired")
            .set(t.stats.retired);
        tg.formula("busy_seconds",
                   [&t] { return t.stats.busySeconds; },
                   "execution time consumed");
        tg.formula("min_slack_seconds",
                   [&t] { return t.stats.minSlackSeconds; },
                   "worst observed deadline slack");
        tg.formula("max_response_seconds",
                   [&t] { return t.stats.maxResponseSeconds; },
                   "worst observed response time");
    }
    // Multi-core runs add per-core groups plus the shared-bus counters.
    if (!bus_)
        return;
    for (const CoreState &c : cores_) {
        StatGroup &cg = set.group("sched.core" + std::to_string(c.id));
        cg.scalar("dispatches", "dispatch decisions on this core")
            .set(static_cast<std::uint64_t>(c.dispatches));
        cg.scalar("context_switches", "running-task changes")
            .set(static_cast<std::uint64_t>(c.contextSwitches));
        cg.formula("busy_seconds", [&c] { return c.busySeconds; },
                   "execution time spent on this core");
        cg.formula("idle_seconds", [&c] { return c.idleSeconds; },
                   "idle time on this core");
        cg.formula("wall_seconds", [&c] { return c.w; },
                   "this core's local schedule length");
    }
    StatGroup &bg = set.group("sched.bus");
    bg.scalar("requests", "misses routed over the shared bus")
        .set(bus_->requests());
    bg.scalar("l2_hits", "shared-L2 tag hits").set(bus_->l2Hits());
    bg.scalar("bank_conflicts", "requests that waited on a busy bank")
        .set(bus_->bankConflicts());
    bg.scalar("mshr_stalls", "requests that waited for a chip MSHR")
        .set(bus_->mshrStalls());
    bg.scalar("bank_wait_ns", "total queueing delay behind busy banks, ns")
        .set(static_cast<std::uint64_t>(bus_->bankWaitNs()));
    bg.scalar("mshr_wait_ns", "total stall waiting for a free chip MSHR, ns")
        .set(static_cast<std::uint64_t>(bus_->mshrWaitNs()));
}

const char *
schedPolicyName(SchedPolicy p)
{
    return p == SchedPolicy::Edf ? "edf" : "rm";
}

const char *
governorPolicyName(GovernorPolicy p)
{
    return p == GovernorPolicy::PerTask ? "pertask" : "max";
}

const char *
placementName(PlacementPolicy p)
{
    return p == PlacementPolicy::Partitioned ? "partitioned" : "global";
}

bool
parseSchedPolicy(const std::string &name, SchedPolicy &out)
{
    if (name == "edf")
        out = SchedPolicy::Edf;
    else if (name == "rm")
        out = SchedPolicy::RateMonotonic;
    else
        return false;
    return true;
}

bool
parseSchedPolicyEx(const std::string &name, SchedPolicy &pol,
                   PlacementPolicy &pl)
{
    if (name == "pedf") {
        pol = SchedPolicy::Edf;
        pl = PlacementPolicy::Partitioned;
    } else if (name == "gedf") {
        pol = SchedPolicy::Edf;
        pl = PlacementPolicy::Global;
    } else {
        return parseSchedPolicy(name, pol);
    }
    return true;
}

bool
parseGovernorPolicy(const std::string &name, GovernorPolicy &out)
{
    if (name == "pertask")
        out = GovernorPolicy::PerTask;
    else if (name == "max")
        out = GovernorPolicy::MaxRequest;
    else
        return false;
    return true;
}

} // namespace visa
