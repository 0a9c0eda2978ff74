/**
 * @file
 * The VISA run-time system: executes a periodic hard real-time task
 * instance by instance, programming the watchdog from the checkpoint
 * schedule (EQ 1), choosing operating points by frequency speculation
 * (EQ 2 on the explicitly-safe processor, EQ 4 on the VISA-compliant
 * complex processor), collecting AET histories from the guest's
 * instrumentation snippets, re-evaluating PETs every tenth task, and
 * responding to missed-checkpoint exceptions by reconfiguring to the
 * safe configuration (simple mode and/or the recovery frequency).
 */

#ifndef VISA_CORE_RUNTIME_HH
#define VISA_CORE_RUNTIME_HH

#include <optional>
#include <utility>
#include <vector>

#include "core/checkpoints.hh"
#include "core/freq_spec.hh"
#include "core/pet.hh"
#include "core/wcet_table.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "power/meter.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace visa
{

/**
 * What the missed-checkpoint response does with the work the complex
 * core had already (possibly incorrectly) performed.
 *
 *  - Resume: the paper's policy — switch to the safe configuration and
 *    continue from the current architectural state. Bounds *timing*
 *    misbehavior; state corrupted by a faulty complex core persists.
 *  - Restart: restart-based recovery (Abdi et al., DESIGN.md §11) —
 *    restore the sub-task-boundary snapshot and re-execute the
 *    mispredicted sub-task in simple mode, discarding everything the
 *    complex core did since the boundary. Admission control charges
 *    the restore on top of EQ 4 (solveRestartSpeculation).
 */
enum class RecoveryPolicy
{
    Resume,
    Restart,
};

/** Configuration of the run-time system. */
struct RuntimeConfig
{
    /** Task deadline == period, seconds. */
    double deadlineSeconds = 0.0;
    /** Mode/frequency switch overhead (the ovhd term of EQ 1-4). */
    double ovhdSeconds = dvsSwitchOverheadNs * 1e-9;
    /** PETs are re-evaluated every this many task executions (§4.3). */
    int reevalPeriod = 10;
    /** PET selection policy. */
    PetPolicy petPolicy{};
    /**
     * Factor applied to AET cycles recorded while in simple mode
     * (§4.3): approximates complex-mode time, "based on the relative
     * performance of the complex and simple modes". Deployments should
     * measure it per task (the experiment harnesses do); a too-small
     * factor underestimates PETs and can trap the schedule in a
     * recurring-miss loop. The default matches the paper's mid-range
     * 3.5x speedup.
     */
    double simpleModeAetScale = 0.28;
    /**
     * Park frequency between completion and the deadline (§5.2);
     * 0 selects the DVS table's lowest operating point.
     */
    MHz idleFreq = 0;
    /**
     * Modeled cost, in cycles, of the DVS software that re-evaluates
     * PETs and recomputes frequencies/checkpoints every tenth task
     * (charged on re-evaluation tasks; see DESIGN.md substitution 4).
     */
    Cycles dvsSoftwareCycles = 5000;
    /**
     * Budget, in cycles at the speculative frequency, for draining the
     * complex pipeline after a missed-checkpoint exception. Part of
     * the recovery budget in EQ 1/EQ 4 (the paper folds it into the
     * "fixed implementation-dependent overhead").
     */
    Cycles drainBudgetCycles = 2048;
    /**
     * Cycles between task release and the first snippet's watchdog
     * store (snippet prologue), subtracted from the first watchdog
     * increment.
     */
    Cycles armSlackCycles = 64;
    /** Missed-checkpoint response; see RecoveryPolicy. */
    RecoveryPolicy recoveryPolicy = RecoveryPolicy::Resume;
    /**
     * Modeled cost, in cycles at the recovery frequency, of restoring
     * the sub-task-boundary snapshot under RecoveryPolicy::Restart
     * (memory image + register state). Charged per recovery and in the
     * restart admission bound; the snapshot *capture* at each boundary
     * is modeled as free (hardware-assisted copy-on-write).
     */
    Cycles restartRestoreCycles = 4096;

    /**
     * The recovery term EQ 4 charges at the speculative frequency:
     * the DVS software plus the drain budget.
     */
    Cycles
    overheadCyclesAtFspec() const
    {
        return dvsSoftwareCycles + drainBudgetCycles;
    }
};

/** Outcome of one task instance. */
struct TaskStats
{
    double completionSeconds = 0.0;
    bool deadlineMet = false;
    bool missedCheckpoint = false;
    int missedSubtask = -1;          ///< 1-based, -1 = none
    MHz fSpec = 0;
    MHz fRec = 0;
    bool speculating = false;        ///< simple-fixed may decline EQ 2
    std::uint64_t retired = 0;
    Word checksum = 0;
    bool checksumReported = false;
};

/** Aggregates over a whole experiment. */
struct ExperimentStats
{
    int tasks = 0;
    int deadlineMisses = 0;          ///< must stay 0 (safety!)
    int checkpointMisses = 0;
    int restarts = 0;                ///< Restart-policy recoveries
    double totalBusySeconds = 0.0;
};

/** Progress of one stepInstance() slice. */
struct StepResult
{
    Cycles ranCycles = 0;       ///< CPU cycles this slice consumed
    double ranSeconds = 0.0;    ///< wall-clock seconds of those cycles
    bool completed = false;     ///< the instance executed HALT
    bool recovered = false;     ///< a missed checkpoint was handled
};

/** Common machinery of both run-time flavors. */
class DvsRuntime
{
  public:
    virtual ~DvsRuntime() = default;

    /**
     * Execute one task instance to completion.
     * @param induce_miss flush caches/predictors first (Fig. 4's
     *        mechanism for forcing mispredicted tasks)
     */
    TaskStats runTask(bool induce_miss = false);

    // ---- incremental instance API (preemptive multi-task use) ----
    //
    // runTask() == beginInstance() + stepInstance() until completed +
    // finishInstance(). The multi-task scheduler (core/scheduler.hh)
    // interleaves slices of several runtimes on one core; between
    // slices this runtime's CPU does not tick, so its watchdog — which
    // bounds the instance's *execution-time* demand — is naturally
    // frozen while the task is preempted.

    /**
     * Start a task instance: PET re-evaluation, frequency speculation,
     * checkpoint programming, and watchdog arming. An instance is
     * active until finishInstance().
     */
    void beginInstance(bool induce_miss = false);

    /**
     * Run the active instance for at most @p max_cycles CPU cycles.
     * Missed-checkpoint recoveries are handled inside the slice (the
     * drain and reconfiguration may overshoot the budget slightly —
     * the returned counts are actual, not requested).
     */
    StepResult stepInstance(Cycles max_cycles);

    /**
     * Drain the pipeline to a preemption point (in-flight instructions
     * retire; cycles are charged to this instance). A watchdog expiry
     * during the drain takes the normal recovery path first.
     */
    StepResult preemptDrain();

    /** Close the completed instance and account its statistics. */
    TaskStats finishInstance();

    bool instanceActive() const { return instanceActive_; }

    /** Sub-task of the active instance's missed checkpoint (-1 = none). */
    int activeMissedSubtask() const { return missedSubtask_; }

    /** Wall-clock seconds consumed by the active instance so far. */
    double
    instanceSeconds() const
    {
        return taskSeconds_ +
               static_cast<double>(cpu_.cycles() - epochStartCycles_) /
                   (cpu_.frequency() * 1e6);
    }

    /**
     * Overrule the task's requested operating point (the shared-core
     * DVS governor resolving several tasks' requests into one core
     * frequency). Raising the frequency is always deadline- and
     * watchdog-safe: checkpoints are programmed in cycles, and EQ 1-4
     * budgets only shrink in wall time at a faster clock.
     */
    void overrideFrequency(MHz f) { switchFrequency(f); }

    /** The operating point this task last requested (f_spec, or f_rec
     *  after a recovery). */
    MHz requestedFrequency() const { return cpu_.frequency(); }

    /**
     * Force the next instance's first watchdog increment down to a
     * handful of cycles, deterministically triggering the
     * missed-checkpoint recovery early in sub-task 1. Expiring ahead
     * of the EQ 1 checkpoint is always safe (more budget remains than
     * the recovery needs), so this exercises the full recovery path
     * without perturbing the safety argument — the scheduler tests'
     * forced-expiry scenarios are built on it.
     */
    void forceNextMiss(Cycles increment = 0)
    {
        forceMiss_ = true;
        forcedIncrement_ = increment;
    }

    /** Attach a power meter; the runtime closes epochs at switches. */
    void attachMeter(PowerMeter *meter) { meter_ = meter; }

    const ExperimentStats &stats() const { return stats_; }
    PetEstimator &pets() { return pets_; }
    /** Sum of all AETs the guest reported, across every task run. The
     *  profiler's checkpoint records reconcile against this exactly. */
    std::uint64_t aetCyclesTotal() const { return aetCyclesTotal_; }
    int tasksRun() const { return tasksRun_; }
    double deadlineSeconds() const { return cfg_.deadlineSeconds; }
    const RuntimeConfig &config() const { return cfg_; }
    Cpu &cpu() { return cpu_; }

    /**
     * Contribute the "runtime" statistics group to @p set: task /
     * recovery / deadline counters, the checkpoint miss rate, and the
     * PET-AET detection-slack distribution. Formulas capture `this`;
     * dump the set while the runtime is alive.
     */
    void buildStats(StatSet &set) const;

  protected:
    DvsRuntime(Cpu &cpu, const Program &prog, MainMemory &mem,
               const WcetTable &wcet, const DvsTable &dvs,
               RuntimeConfig cfg);

    /** Choose {f_spec, f_rec} for the next task. */
    virtual FreqPair chooseFrequencies() = 0;
    /** Build the watchdog programming for the chosen pair. */
    virtual CheckpointPlan buildPlan() = 0;
    /** Respond to a missed checkpoint (switch mode and/or frequency). */
    virtual void recover() = 0;
    /** Reconfigure for a fresh task attempt (complex mode etc.). */
    virtual void prepare() = 0;

    void switchFrequency(MHz f);
    void writeWatchdogParams(const CheckpointPlan &plan);
    void disableWatchdogParams();

    // ---- restart-based recovery (RecoveryPolicy::Restart) ----

    /**
     * Capture the restart snapshot: the architectural state and every
     * materialized memory page, taken at each sub-task boundary (the
     * platform's onSubtaskBegin hook) and at instance begin.
     */
    void takeSnapshot(int subtask);
    /**
     * Rewind memory and architectural state to the last snapshot
     * (pages are compared first so unchanged ones — in particular the
     * text image — are not rewritten). @return pages rewritten.
     */
    std::uint64_t restoreSnapshot();
    /** The Restart recovery tail shared by both runtime flavors:
     *  restore, charge cfg_.restartRestoreCycles, trace + count. */
    void restartFromSnapshot();

    /** Fold the open frequency epoch into taskSeconds_ (the meter's
     *  epoch stays open: the frequency did not change). */
    void foldOpenEpoch();
    /** The missed-checkpoint response shared by stepInstance() and
     *  preemptDrain(): record the miss, mask the watchdog, recover. */
    void handleMiss();

    Cpu &cpu_;
    const Program &prog_;
    MainMemory &mem_;
    const WcetTable &wcet_;
    const DvsTable &dvs_;
    RuntimeConfig cfg_;
    PetEstimator pets_;
    PowerMeter *meter_ = nullptr;

    FreqPair current_{};
    bool speculating_ = true;
    std::optional<CheckpointPlan> plan_;
    int tasksRun_ = 0;
    ExperimentStats stats_;

    /**
     * Set by chooseFrequencies() when the whole task runs in the safe
     * configuration on the complex processor: all its AETs must be
     * scaled to the complex-mode domain before entering the history.
     */
    bool scaleAllAets_ = false;

    /**
     * Factor applied to AETs of sub-tasks that ran (partly) after a
     * missed checkpoint. The complex runtime maps simple-mode cycles
     * back to the complex domain (§4.3); the simple-fixed runtime's
     * recovery only changes frequency, so its AETs stay comparable
     * (factor 1).
     */
    double recoveryAetScale_ = 1.0;

    // per-instance bookkeeping
    double taskSeconds_ = 0.0;
    Cycles epochStartCycles_ = 0;
    int missedSubtask_ = -1;
    bool instanceActive_ = false;
    bool armed_ = false;              ///< watchdog armed this instance
    Cycles instanceCycles_ = 0;       ///< runaway guard accumulator
    TaskStats inst_;                  ///< stats of the active instance
    /** AET reports collected by the platform hook this instance. */
    std::vector<std::pair<int, std::uint64_t>> aets_;
    bool forceMiss_ = false;          ///< see forceNextMiss()
    Cycles forcedIncrement_ = 0;

    /** Restart snapshot (valid only under RecoveryPolicy::Restart). */
    struct SubtaskSnapshot
    {
        bool valid = false;
        int subtask = 0;
        ArchState arch{};
        /** (base, pageBytes() of content) per materialized page. */
        std::vector<std::pair<Addr, std::vector<std::uint8_t>>> pages;
    };
    SubtaskSnapshot snap_;
    /** Restart recovery-cost accumulators (buildStats exports them). */
    std::uint64_t restartRestoreCyclesTotal_ = 0;
    std::uint64_t restartPagesTotal_ = 0;

    /**
     * Detection slack (PET - AET, cycles) at every armed checkpoint
     * that was met. The range is intentionally modest: large slacks
     * clamp into the explicit overflow bucket.
     */
    StatGroup::Distribution slackDist_;

    /**
     * Cycles of finished task instances, banked into the tracer's
     * cycle offset so exported timelines stay monotonic across tasks
     * (per-task cycle counters reset to zero each instance).
     */
    Cycles tracedCycles_ = 0;

    /** See aetCyclesTotal(). */
    std::uint64_t aetCyclesTotal_ = 0;
};

/**
 * The VISA framework on the complex processor: EQ 4 speculation,
 * recovery = drain + simple mode + recovery frequency.
 */
class VisaComplexRuntime : public DvsRuntime
{
  public:
    VisaComplexRuntime(OooCpu &cpu, const Program &prog, MainMemory &mem,
                       const WcetTable &wcet, const DvsTable &dvs,
                       RuntimeConfig cfg)
        : DvsRuntime(cpu, prog, mem, wcet, dvs, cfg), ooo_(cpu)
    {
        recoveryAetScale_ = cfg_.simpleModeAetScale;
    }

  protected:
    FreqPair chooseFrequencies() override;
    CheckpointPlan buildPlan() override;
    void recover() override;
    void prepare() override;

  private:
    OooCpu &ooo_;
    /**
     * When EQ 4 is infeasible with the current PETs (e.g. before any
     * history exists under very tight deadlines), the task runs
     * explicitly safe: simple mode at a statically sufficient
     * frequency.
     */
    bool fallbackSimple_ = false;
};

/**
 * The explicitly-safe simple-fixed processor: EQ 2 speculation when it
 * lowers the frequency (paper §6.2), otherwise a fixed safe frequency;
 * recovery = recovery frequency only.
 */
class SimpleFixedRuntime : public DvsRuntime
{
  public:
    SimpleFixedRuntime(SimpleCpu &cpu, const Program &prog,
                       MainMemory &mem, const WcetTable &wcet,
                       const DvsTable &dvs, RuntimeConfig cfg)
        : DvsRuntime(cpu, prog, mem, wcet, dvs, cfg)
    {
    }

  protected:
    FreqPair chooseFrequencies() override;
    CheckpointPlan buildPlan() override;
    void recover() override;
    void prepare() override;
};

/**
 * Off-line profiling of per-sub-task AETs on the complex processor
 * (the PET seeding method of Rotenberg's original frequency
 * speculation, which §4.3's run-time profiling then keeps refining).
 *
 * @param margin multiplier applied to the measured AETs
 * @return AET cycles per sub-task (at 1 GHz), scaled by @p margin
 */
std::vector<std::uint64_t> profileComplexAets(const Program &prog,
                                              int num_subtasks,
                                              double margin = 1.1,
                                              MHz freq = 1000);

} // namespace visa

#endif // VISA_CORE_RUNTIME_HH
