/**
 * @file
 * Preemptive multi-task VISA runtime: several periodic hard real-time
 * tasks share one DVS-capable core under EDF (or rate-monotonic)
 * scheduling, each carrying its own VISA machinery — per-task WCET
 * table, checkpoint schedule (EQ 1), PET history, watchdog arming and
 * speculation state (core/runtime.hh's incremental instance API).
 *
 * Safety composition: each task's runtime is configured with an
 * *execution-time budget* B_i (its `deadlineSeconds`), so its watchdog
 * and EQ 1/EQ 4 checkpoints bound the CPU time the task can demand per
 * job — including recovery, which EQ 1 sizes to finish within B_i.
 * Because a preempted task's core does not tick, its watchdog freezes
 * across preemption: the bound is on execution time, not wall time.
 * Classic schedulability analysis (core/schedulability.hh) over
 * {B_i + switch overhead, T_i} then guarantees every job's wall-clock
 * deadline r_k + T_i, and one task's recovery cannot consume another
 * task's slack — it is confined to the recovering task's own budget.
 *
 * Tasks keep their own cycle/watchdog/memory domains (one rig per
 * task); the scheduler advances a shared wall clock by each slice's
 * wall-time cost and models the context-switch cost at every change of
 * the running task. A shared DVS governor resolves the ready tasks'
 * per-task frequency requests into the single core frequency.
 *
 * One engine serves every core count and placement. Each core keeps
 * its own wall clock and DVS domain; tasks are placed either
 * partitioned (P-EDF/P-RM: affinity pins, then worst-fit) or global
 * (G-EDF with migration at scheduling points). A single core is simply
 * m = 1: one partition holding every task. Every per-slice step
 * (release, pick, preempt-drain and recovery, instance start, governor,
 * switch cost, slice budget, completion accounting, runaway guard) is
 * written once, and two drivers order the slices:
 *
 *  - concurrent (partitioned, m > 1): every core advances to the next
 *    SchedulerConfig::epochSeconds barrier over the worker pool
 *    (sim/parallel.hh), with per-core trace rings merged at the
 *    barrier; bit-identical for any VISA_THREADS setting;
 *  - serial (global, and every m = 1 run): the core with runnable work
 *    at the lowest (local wall, id) runs one dispatch + slice.
 *
 * With m > 1, complex-mode misses of the dispatched tasks contend on a
 * shared chip bus (chip/interconnect.hh) — the serial driver wraps each
 * slice in its own bus epoch — and admission composes the per-task
 * single-core feasibility with a cross-core shared-memory interference
 * bound (see SchedulerConfig::memStallShare) before the per-core EDF/RM
 * or Goossens-Funk-Baruah test. With m = 1 nothing is shared: no bus,
 * no barrier, and events go straight to the caller's tracer unstamped.
 */

#ifndef VISA_CORE_SCHEDULER_HH
#define VISA_CORE_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "chip/interconnect.hh"
#include "core/runtime.hh"
#include "core/schedulability.hh"

namespace visa
{

/** Dispatching policy. */
enum class SchedPolicy
{
    Edf,              ///< earliest absolute deadline first
    RateMonotonic,    ///< shortest period first (fixed priority)
};

/** How jobs map onto the cores of a chip. */
enum class PlacementPolicy
{
    /** Every task is pinned to one core (affinity, else worst-fit by
     *  inflated utilization); each core runs its partition under the
     *  configured policy. Admission is per-core. */
    Partitioned,
    /** One chip-wide ready queue; a preempted job may resume on any
     *  core (migration at scheduling points only). EDF only; admission
     *  is the Goossens/Funk/Baruah bound. */
    Global,
};

/** How per-task frequency requests map to the one core clock. */
enum class GovernorPolicy
{
    /** The dispatched task's own operating point (switches on every
     *  context switch; each task runs exactly its EQ 2/EQ 4 choice). */
    PerTask,
    /** The maximum over all ready tasks' requests: fewer DVS
     *  transitions, never below any task's requirement (running a task
     *  faster than its f_spec is deadline- and watchdog-safe). */
    MaxRequest,
};

/** One periodic task submitted to the scheduler. */
struct SchedTaskDef
{
    std::string name;
    /** Task binary and analysis products; must outlive the scheduler. */
    const Program *program = nullptr;
    const WcetTable *wcet = nullptr;
    const DvsTable *dvs = nullptr;
    /**
     * Per-task runtime configuration. `runtime.deadlineSeconds` is the
     * task's execution-time budget B_i (see file comment), NOT its
     * period: the wall-clock deadline of job k is its release plus
     * periodSeconds.
     */
    RuntimeConfig runtime;
    double periodSeconds = 0.0;    ///< period == relative deadline
    double phaseSeconds = 0.0;     ///< first release offset
    /** Complex pipeline + VISA runtime (EQ 4) when true; the
     *  explicitly-safe simple-fixed pipeline (EQ 2) when false. */
    bool complexMachine = true;
    Word expectedChecksum = 0;     ///< 0 = don't check
    /** Flush caches/predictors every Nth job (0 = never). */
    int induceMissEvery = 0;
    /** Force a watchdog expiry every Nth job (0 = never); see
     *  DvsRuntime::forceNextMiss(). */
    int forceMissEvery = 0;
    /** Cycle count for forced expiries (0 = the runtime's default). */
    Cycles forceMissIncrement = 0;
};

struct SchedulerConfig
{
    SchedPolicy policy = SchedPolicy::Edf;
    GovernorPolicy governor = GovernorPolicy::PerTask;
    /**
     * Modeled context-switch cost, charged to the wall clock at every
     * dispatch that changes the running task. Deliberately charged to
     * no task's CPU: it must not consume any task's watchdog budget,
     * so admission reserves it per job instead (two switches per job).
     */
    Cycles contextSwitchCycles = 500;
    /** Longest slice between scheduling points while a job runs. */
    Cycles quantumCycles = 20000;
    /** Core-utilization headroom the admission test reserves. */
    double utilizationMargin = 0.02;

    // --- chip geometry; cores == 1 shares nothing (no bus, no barrier).
    int cores = 1;
    PlacementPolicy placement = PlacementPolicy::Partitioned;
    /** Optional per-task core pins (task index -> core id; -1 = let
     *  worst-fit place it). Partitioned placement only. */
    std::vector<int> affinity;
    /** Geometry of the shared bus + L2 the cores contend on. */
    chip::ChipBusParams bus;
    /**
     * Admission-side interference bound: the fraction of a budget B_i
     * assumed to be shared-memory stall time in the worst case. Each
     * such access can queue behind every other core's in-flight access,
     * so admission inflates B_i' = B_i * (1 + (m-1) * memStallShare *
     * busOccupancyNs / memAccessNs) before the schedulability test.
     */
    double memStallShare = 0.2;
    /**
     * Synchronization quantum of the concurrent driver (partitioned,
     * cores > 1): between two barriers every core advances its local
     * schedule up to this much wall time inside one bus epoch (cores
     * may run on concurrent worker threads; the barrier drain replays
     * all bus traffic in deterministic order). Smaller epochs tighten
     * cross-core contention lag; larger ones amortize the barrier. The
     * serial driver (global placement, one core) has no barrier.
     */
    double epochSeconds = 1e-3;
};

/** One completed job (task instance) in wall-clock terms. */
struct JobRecord
{
    int task = 0;
    int job = 0;                   ///< per-task job index
    double releaseSeconds = 0.0;   ///< nominal release r_k
    double completionSeconds = 0.0;
    double deadlineSeconds = 0.0;  ///< absolute: r_k + T
    bool deadlineMet = false;
    bool missedCheckpoint = false;
    int preemptions = 0;           ///< times this job was preempted
    double busySeconds = 0.0;      ///< execution time consumed
};

/** Aggregates per task across the whole schedule. */
struct SchedTaskStats
{
    int jobs = 0;
    int deadlineMisses = 0;        ///< must stay 0 (safety!)
    int checkpointMisses = 0;
    int preemptions = 0;
    int badChecksums = 0;
    double busySeconds = 0.0;
    /** min over jobs of (absolute deadline - completion). */
    double minSlackSeconds = 0.0;
    double maxResponseSeconds = 0.0;
    std::uint64_t retired = 0;
};

/** Whole-schedule outcome. */
struct ScheduleOutcome
{
    double wallSeconds = 0.0;
    int jobs = 0;
    int dispatches = 0;
    int preemptions = 0;
    int contextSwitches = 0;
    int freqChanges = 0;           ///< governor-visible core changes
    double switchOverheadSeconds = 0.0;
    double idleSeconds = 0.0;
    int deadlineMisses = 0;
    int checkpointMisses = 0;
};

/**
 * The preemptive multi-task engine. Construction order: addTask() for
 * each task, then run(). Deterministic: dispatch ties break by task
 * index, and every modeled cost is derived from simulated state.
 */
class MultiTaskScheduler
{
  public:
    explicit MultiTaskScheduler(SchedulerConfig cfg = {});
    ~MultiTaskScheduler();

    MultiTaskScheduler(const MultiTaskScheduler &) = delete;
    MultiTaskScheduler &operator=(const MultiTaskScheduler &) = delete;

    /** Admit a task (builds its private rig). @return its index. */
    int addTask(const SchedTaskDef &def);

    /**
     * The admission test run() enforces: per-task single-task
     * feasibility of each budget B_i, plus the policy's schedulability
     * test over {B_i + 2 * switch, T_i} with the configured margin.
     * @return an explanation naming the offender, or "" if admitted.
     */
    std::string admissionError() const;

    /** Execute @p jobs_per_task jobs of every task. */
    ScheduleOutcome run(int jobs_per_task);

    int numTasks() const { return static_cast<int>(tasks_.size()); }
    const SchedTaskStats &taskStats(int task) const;
    const SchedTaskDef &taskDef(int task) const;
    DvsRuntime &taskRuntime(int task);
    const std::vector<JobRecord> &jobs() const { return jobs_; }
    const ScheduleOutcome &outcome() const { return outcome_; }

    /**
     * Contribute "sched" and per-task "sched.taskN" statistics groups
     * to @p set — plus "sched.coreN" and "sched.bus" groups after a
     * run on cores > 1. Formulas capture `this`; dump while alive.
     */
    void buildStats(StatSet &set) const;

    /** Task-to-core map of the last multi-core run (-1 under global
     *  placement: jobs migrate). Empty before run() / single-core. */
    const std::vector<int> &assignment() const { return assignment_; }

  private:
    struct ManagedTask;
    struct CoreState;

    /** Wall seconds one switch takes at @p f. */
    double switchSeconds(MHz f) const;
    /** Nominal release time of task @p t's next unreleased job. */
    double nominalRelease(const ManagedTask &t) const;
    /** Task @p t has a job due for release (its last one completed). */
    bool pendingRelease(const ManagedTask &t) const;

    /** B_i multiplier bounding cross-core shared-memory interference;
     *  1.0 on a single core. */
    double interferenceFactor() const;
    /** Admission-side demand of task @p task: interference-inflated
     *  budget plus two context switches, margin applied. */
    double inflatedDemand(int task) const;
    /** Deterministic partitioned placement (affinity pins, then
     *  worst-fit by inflated utilization). Never fails; feasibility of
     *  the result is admissionError()'s job. */
    std::vector<int> partitionedAssignment() const;

    // ---- the engine: one core's steps, then the two drivers ----
    /** Every job of core @p c's tasks completed. */
    bool finished(const CoreState &c) const;
    /** Release every job of @p c's tasks that is due at its wall. */
    void releaseDue(CoreState &c);
    /** Highest-priority job @p c may run now; -1 if none. */
    int pick(const CoreState &c) const;
    /** Idle @p c to its next local event, capped at @p barrier.
     *  @return that event's time (+inf if there is none). */
    double idleTo(CoreState &c, double barrier);
    /** Dispatch @p next on @p c and run one slice, ending at the next
     *  scheduling point, the quantum, or @p barrier. */
    void step(CoreState &c, int next, double barrier);
    /** Book @p r (a slice or a preempt drain of @p task) on @p c. */
    void charge(CoreState &c, int task, const StepResult &r);
    /** Record a scheduler event of @p task on @p c's trace sink. */
    void emit(const CoreState &c, EventKind k, int task, std::uint64_t b,
              std::uint64_t arg) const;
    void runSerial();
    void runConcurrent();

    SchedulerConfig cfg_;
    std::vector<std::unique_ptr<ManagedTask>> tasks_;
    std::vector<JobRecord> jobs_;
    ScheduleOutcome outcome_;
    std::vector<CoreState> cores_;
    int jobsPerTask_ = 0;     ///< of the current run()
    double horizon_ = 0.0;    ///< runaway guard of the current run()
    // Shared chip state (cores > 1 only).
    std::unique_ptr<chip::ChipInterconnect> bus_;
    std::vector<int> assignment_;
};

const char *schedPolicyName(SchedPolicy p);
const char *governorPolicyName(GovernorPolicy p);
const char *placementName(PlacementPolicy p);
/** Parse "edf" / "rm"; @return false on unknown names. */
bool parseSchedPolicy(const std::string &name, SchedPolicy &out);
/**
 * Parse a policy name that may carry a placement: "edf" / "rm" (keep
 * the current placement), "pedf" (EDF, partitioned), "gedf" (EDF,
 * global). @return false on unknown names.
 */
bool parseSchedPolicyEx(const std::string &name, SchedPolicy &pol,
                        PlacementPolicy &pl);
/** Parse "pertask" / "max"; @return false on unknown names. */
bool parseGovernorPolicy(const std::string &name, GovernorPolicy &out);

} // namespace visa

#endif // VISA_CORE_SCHEDULER_HH
