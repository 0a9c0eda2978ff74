/**
 * @file
 * Fault-injection matrix for the complex core (DESIGN.md §11).
 *
 * The VISA argument is that the complex core may misbehave arbitrarily
 * and the system stays safe: the watchdog bounds its *timing* and the
 * simple-mode fallback bounds its *function*. This module tests that
 * argument mechanically. FaultInjector is a FaultPort (cpu/
 * fault_port.hh) that injects one seeded transient fault — chosen from
 * a matrix of distinct microarchitectural fault classes — into an
 * OooCpu run, and the campaign driver (runInjectProgram /
 * runInjectCampaign) classifies what happened:
 *
 *  - DetectedWatchdog: a checkpoint missed and the runtime recovered
 *    (the paper's detection path; execution traps — wild PC, bad
 *    opcode — are folded into this bucket, since a real machine check
 *    enters the same missed-checkpoint recovery).
 *  - DetectedLockstep: timing stayed inside the PETs, but a dual-rig
 *    architectural lockstep against the in-order reference diverges —
 *    the fault is functionally visible to an external checker.
 *  - SilentBenign: neither detector fires and the final checksum
 *    matches the golden run (the fault was masked: dead register,
 *    overwritten value, ...).
 *  - SilentCorruption: neither detector fires and the checksum is
 *    wrong (or the deadline was missed) — a silent-data-corruption
 *    escape. The campaign extracts these as corpus repro cases.
 *
 * Fault classes cover the structures the paper's "unsafe processor"
 * abstraction gives up on verifying: register-file/ROB payload bits,
 * load/store values and addresses, branch direction and target, the
 * block cache's decoded records, and the event-driven scheduler's
 * wakeup logic. Simple mode takes no faults by design — it is the
 * trusted fallback the safety argument leans on.
 *
 * Everything here is deterministic: a {class, seed} pair names one
 * fault in one generated program, regardless of thread count.
 */

#ifndef VISA_VERIFY_INJECT_HH
#define VISA_VERIFY_INJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/fault_port.hh"
#include "sim/trace.hh"
#include "verify/progen.hh"

namespace visa::verify
{

/** The fault matrix: one class per attacked structure. */
enum class FaultClass : int
{
    /** Flip one bit of an instruction's integer destination register
     *  after writeback (register file / ROB payload upset). */
    RegBitFlip,
    /** Flip one bit of a load's result (load/store-queue data upset). */
    LoadValue,
    /** Corrupt a load's effective address (AGU upset): the value is
     *  re-read from the corrupted address. */
    LoadAddr,
    /** Wild store: the store's data is *also* written to a corrupted
     *  address (text and MMIO are avoided so the run stays decodable). */
    StoreAddr,
    /** Invert a conditional branch's resolved direction. */
    BranchDir,
    /** Redirect a direct jump to the fall-through path (target-field
     *  upset in the decoded record / BTB). */
    BranchTarget,
    /** Flip an immediate bit in a decoded ALU record and replay the
     *  operation (block-cache decoded-record corruption). */
    DecodeImm,
    /** Timing-only: a scheduler entry's wakeup is lost and re-asserted
     *  thousands of cycles late (stuck select logic). Architecturally
     *  invisible — only the watchdog can catch it. */
    WakeupStall,
    /** The legacy deliberate bug: subword signed loads (LB/LH)
     *  zero-extend instead of sign-extending. Persistent by
     *  convention; replaces OooCpu::testInjectLoadExtBug. */
    LoadExt,
};

inline constexpr int numFaultClasses = static_cast<int>(FaultClass::LoadExt) + 1;

/** Stable lower-case name (CLI + report key). */
const char *faultClassName(FaultClass cls);

/** Parse a class name; @return false if unknown. */
bool parseFaultClass(const char *name, FaultClass &out);

/** One fault to inject. */
struct FaultSpec
{
    FaultClass cls = FaultClass::RegBitFlip;
    /** Seeds the corrupted bit/address choice. */
    std::uint64_t seed = 0;
    /**
     * Arm after this many executed instructions; the first *eligible*
     * instruction at or after the trigger is corrupted.
     */
    std::uint64_t triggerInstr = 0;
    /** Alternative arming point: first execution at/after this cycle
     *  (0 = instruction trigger only). */
    Cycles triggerCycle = 0;
    /** Corrupt every eligible instruction once armed (a permanent
     *  defect) instead of a one-shot transient. */
    bool persistent = false;
};

/** What the injector actually did. */
struct FaultRecord
{
    bool fired = false;
    std::uint64_t seq = 0;      ///< ROB sequence of the first corruption
    Addr pc = 0;                ///< pc of the corrupted instruction
    Cycles cycle = 0;           ///< complex-core cycle of the corruption
    std::uint64_t applied = 0;  ///< corruption count (persistent > 1)
};

/**
 * The FaultPort implementation. Attach with OooCpu::setFaultPort();
 * detach (or destroy the cpu first) before the injector dies.
 */
class FaultInjector final : public FaultPort
{
  public:
    explicit FaultInjector(const FaultSpec &spec);

    void onExecute(ExecCore &core, MainMemory &mem, ExecInfo &info,
                   std::uint64_t seq, Cycles cycle) override;
    Cycles onIssueReady(std::uint64_t seq, Cycles cycle) override;

    const FaultSpec &spec() const { return spec_; }
    const FaultRecord &record() const { return rec_; }

  private:
    bool armed(Cycles cycle) const;
    /** @return true if the fault was applied to this instruction. */
    bool apply(ExecCore &core, MainMemory &mem, ExecInfo &info);

    FaultSpec spec_;
    FaultRecord rec_;
    std::uint64_t executed_ = 0;
};

/** Convenience: the legacy load-extension bug as a persistent fault. */
FaultSpec loadExtBugSpec();

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

/** Classification of one injected run (see the file comment). */
enum class InjectOutcome : int
{
    NoTrigger,           ///< the fault never found an eligible victim
    DetectedWatchdog,    ///< missed checkpoint / trap; runtime recovered
    DetectedLockstep,    ///< architectural divergence vs the reference
    SilentBenign,        ///< undetected, checksum still correct
    SilentCorruption,    ///< undetected, wrong checksum or deadline miss
};

const char *injectOutcomeName(InjectOutcome o);

/** Knobs of one campaign run (defaults mirror the timing oracle's). */
struct InjectRunOptions
{
    GenProfile profile = GenProfile::Mixed;
    int statements = 48;
    std::uint64_t maxInstructions = 2'000'000;
    /**
     * Deadline = slack * (ovhd + WCET_task(fRec)) — the oracle's
     * provisioning recipe. Slightly looser than the oracle's 1.10:
     * the restart admission bound must absorb the snapshot-restore
     * term on top of EQ 4, and generated tasks are only a few
     * microseconds long.
     */
    double deadlineSlack = 1.25;
    MHz fRec = 600;
    double ovhdSeconds = 0.5e-6;
    /**
     * Runtime overhead model, scaled to the microsecond-sized
     * generated tasks (the production defaults assume real tasks and
     * would make EQ 4 infeasible here, parking every run in safe
     * mode with nothing to inject into).
     */
    Cycles dvsSoftwareCycles = 100;
    Cycles drainBudgetCycles = 128;
    /** Restart snapshot-restore cost charged per recovery. */
    Cycles restartRestoreCycles = 128;
    /**
     * Force an early watchdog expiry in the injected run (the
     * runtime's forceNextMiss hook): harnesses that must exercise the
     * detection + restart path deterministically regardless of whether
     * the fault itself overruns a PET.
     */
    bool forceMiss = false;
    /** Inject at the first eligible instruction instead of a
     *  seed-derived point (pairs with forceMiss for demo/trace runs). */
    bool triggerFirst = false;
    /**
     * Also run the FlexStep-style paired-core vote (chip/paired.hh) on
     * every fired fault: a spare core re-executes the plain twin in
     * simple mode and the boundary states are compared. Measures the
     * spare-core detector's coverage side by side with the watchdog
     * and the per-instruction lockstep checker.
     */
    bool pairedCheck = false;
    /**
     * Optional caller-owned tracer installed around the injected
     * (phase A) run; receives the fault_inject / fault_detect /
     * recovery_restart events plus whatever its mask admits.
     */
    Tracer *trace = nullptr;
};

/** Everything one injected run produced. */
struct InjectRunResult
{
    std::uint64_t seed = 0;
    FaultClass cls = FaultClass::RegBitFlip;
    InjectOutcome outcome = InjectOutcome::NoTrigger;
    FaultRecord fault;

    /** Watchdog path: cycles from corruption to the watchdog fire. */
    Cycles detectionLatencyCycles = 0;
    /** Lockstep path: instructions the checker ran before diverging. */
    std::uint64_t lockstepInstructions = 0;

    // deadline economics of the injected run
    double deadlineSeconds = 0.0;
    double completionSeconds = 0.0;
    bool deadlineMet = true;
    int restarts = 0;

    Word checksum = 0;
    Word goldenChecksum = 0;

    /** Block-profile join: entry pc and dynamic entry count of the
     *  basic block containing the corruption site (0 when no fault). */
    Addr blockPc = 0;
    std::uint64_t blockEntries = 0;

    /** Paired-core vote (only with InjectRunOptions::pairedCheck):
     *  whether the vote ran on this fault, and whether it detected. */
    bool pairedChecked = false;
    bool pairedDetected = false;

    /** Generated source (kept so escapes can be saved as repros). */
    std::string source;
    /** Divergence / failure detail, empty otherwise. */
    std::string report;
};

/**
 * Inject one fault of class @p cls into the seeded generated program
 * and classify the outcome. The victim instruction index is derived
 * deterministically from {seed, cls} and the golden run's dynamic
 * instruction count.
 */
InjectRunResult runInjectProgram(std::uint64_t seed, FaultClass cls,
                                 const InjectRunOptions &opts = {});

/** Per-class aggregation of a campaign. */
struct InjectClassCoverage
{
    FaultClass cls = FaultClass::RegBitFlip;
    std::uint64_t programs = 0;
    std::uint64_t fired = 0;
    std::uint64_t noTrigger = 0;
    std::uint64_t watchdog = 0;
    std::uint64_t lockstep = 0;
    std::uint64_t silentBenign = 0;
    std::uint64_t silentCorruption = 0;

    // watchdog detection latency, cycles (over watchdog detections)
    Cycles latencyMin = 0;
    Cycles latencyMax = 0;
    double latencySum = 0.0;

    // deadline cost: completion / deadline (over fired runs)
    double deadlineFracSum = 0.0;
    double deadlineFracMax = 0.0;
    std::uint64_t restarts = 0;

    // paired-core vote (over runs where the vote ran)
    std::uint64_t pairedChecked = 0;
    std::uint64_t pairedDetected = 0;

    /** Fold one run into the aggregate. */
    void add(const InjectRunResult &r);
};

/** A whole campaign's outcome. */
struct InjectCampaignResult
{
    std::uint64_t programs = 0;    ///< injected runs performed
    std::vector<InjectClassCoverage> classes;
    /** Full results of every SilentCorruption escape, scan order. */
    std::vector<InjectRunResult> escapes;
};

/**
 * Run @p count injected programs starting at @p first_seed over
 * @p classes (round-robin by scan index), in parallel batches with a
 * deterministic merge: the same {first_seed, count, classes, opts}
 * yields the same tables and the same escapes for any thread count.
 * @p progress, if non-null, is called after each batch with
 * (done, total).
 */
InjectCampaignResult
runInjectCampaign(std::uint64_t first_seed, std::uint64_t count,
                  const std::vector<FaultClass> &classes,
                  const InjectRunOptions &opts = {},
                  void (*progress)(std::uint64_t, std::uint64_t) = nullptr);

/** Render the per-class coverage table (the campaign's report). */
std::string formatCoverageTable(const InjectCampaignResult &res);

} // namespace visa::verify

#endif // VISA_VERIFY_INJECT_HH
