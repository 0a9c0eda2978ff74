/**
 * @file
 * The multi-core VISA chip: N rigs (cpu/rig.hh) — each core its own
 * Platform (watchdog, cycle counter, DVS registers: the per-core safety
 * and clock domain), its own functional image and one pipeline with
 * private L1s — in front of one ChipInterconnect (banked bus + shared
 * L2 + chip MSHR pool).
 *
 * Sharing boundary, and why: the L2 and the bus are per-chip objects
 * (the scale-out the ROADMAP calls for); the Platform stays per-core
 * because it *is* the VISA watchdog — the paper's safety argument
 * needs one independent checkpoint counter per execution domain, and
 * a shared watchdog would let one core's recovery mask another's
 * missed checkpoint. Each core also runs on its own image of the
 * program: free-running N copies of one program is SPMD replication —
 * the same private-rig model the paired detector and the multi-task
 * scheduler use — and private images are what lets the cores execute
 * on concurrent host threads without the functional state racing. A
 * single-core chip attaches nothing to the bus, so its core is
 * bit-identical to a plain rig.
 *
 * Cores are stepped deterministically: runAll() executes the cores in
 * fixed cycle windows with the interconnect in epoch-buffered mode, so
 * a chip run is a pure function of (program, core count, window) — the
 * cores of one window may run serially or on worker threads
 * (sim/parallel.hh) with bit-identical results.
 */

#ifndef VISA_CHIP_CHIP_HH
#define VISA_CHIP_CHIP_HH

#include <memory>
#include <vector>

#include "chip/interconnect.hh"
#include "cpu/rig.hh"
#include "sim/stats.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace chip
{

class Chip
{
  public:
    /**
     * Load @p prog, which must outlive the chip (the builder owns
     * both), into @p cores rigs; with two or more, every core's
     * MemController is attached to the bus. The caller builds each
     * core's pipeline (Rig::build) before running the chip.
     */
    Chip(const Program &prog, int cores);
    ~Chip();
    Chip(const Chip &) = delete;
    Chip &operator=(const Chip &) = delete;

    const Program &program() const { return prog_; }
    int numCores() const { return static_cast<int>(cores_.size()); }

    ChipInterconnect &bus() { return bus_; }
    Rig &core(int i) { return *cores_[static_cast<std::size_t>(i)]; }

    /** Result of a free chip run. */
    struct RunAllResult
    {
        bool allHalted = false;
        std::uint64_t retired = 0;    ///< sum over cores
    };

    /**
     * Free-run the chip: every core executes the chip's program on its
     * pipeline in @p window-cycle synchronization quanta until every
     * core halts or @p maxCycles is exhausted.
     *
     * Each quantum's cores run over the process-wide worker pool with
     * the interconnect in epoch-buffered mode, and per-core trace
     * rings merge at every quantum barrier by (cycle, core id): the
     * result — stats, traces, RunAllResult — is bit-identical for any
     * VISA_THREADS setting. Only the cycles the cores actually consume
     * are charged against @p maxCycles (a quantum in which every live
     * core halts early charges the longest actual run, not the whole
     * window), and halted cores leave the schedule instead of being
     * re-scanned every quantum.
     */
    RunAllResult runAll(Cycles maxCycles, Cycles window = 4096);

    /**
     * Run core @p i alone for up to @p maxCycles inside one bus epoch:
     * its lane holds the shared state plus its own requests, replayed
     * in issue order at the drain (DESIGN.md §13).
     */
    RunResult runAlone(int i, Cycles maxCycles);

    /** Bus counters as a "chip.bus" stats group. */
    void buildStats(StatSet &set) const;

    /**
     * Transfer ownership of the program (and the workload it came
     * from, if any) into the chip. The ctor's @p prog reference must
     * point at @p prog's heap object (SimBuilder guarantees this).
     */
    void
    adoptProgram(std::unique_ptr<Program> prog,
                 std::unique_ptr<Workload> workload)
    {
        ownedProg_ = std::move(prog);
        workload_ = std::move(workload);
    }
    /** The built workload, or nullptr unless one was adopted. */
    const Workload *workload() const { return workload_.get(); }

  private:
    // Ownership slots first: cores (whose CPUs reference the program)
    // are destroyed before the program they run.
    std::unique_ptr<Program> ownedProg_;
    std::unique_ptr<Workload> workload_;
    const Program &prog_;
    ChipInterconnect bus_;
    std::vector<std::unique_ptr<Rig>> cores_;
};

} // namespace chip
} // namespace visa

#endif // VISA_CHIP_CHIP_HH
