/**
 * @file
 * The complex processor (paper §3.2): a dynamically scheduled 4-way
 * superscalar with a 128-entry reorder buffer, 64-entry issue queue,
 * 64-entry load/store queue, 4 pipelined universal function units,
 * 2 data-cache ports, a 2^16-entry gshare predictor and a 2^16-entry
 * indirect-target table. Seven stages: fetch, dispatch, issue, register
 * read, execute/memory, writeback, retire.
 *
 * It also implements the VISA-compliant *simple mode* with every §3.2
 * alteration: BTFN static prediction, fetch-block buffering with
 * 1 instruction/cycle hand-down, renaming without map updates, issue
 * queue bypass, a single unpipelined FU, LSQ bypass with program-order
 * data-cache access, stores issuing in the memory stage, no active-list
 * residency, and a single outstanding memory request. Simple-mode
 * timing is produced by the same VisaTimer recurrence as the
 * simple-fixed processor, making VISA conformance structural; power
 * accounting differs (large physical register file, rename lookups).
 *
 * Modeling approach (the SimpleScalar sim-outorder one): instructions
 * execute functionally, in order, at fetch; the cycle-driven timing
 * model tracks structure occupancy and dependences. Mispredicted
 * branches stall fetch until they resolve (perfect squash: wrong-path
 * instructions consume no resources; documented in DESIGN.md).
 *
 * The complex-mode timing core is *event-driven* (DESIGN.md
 * "Event-driven complex core"): completing instructions wake their
 * consumers through per-entry waiter lists instead of the issue stage
 * polling every unissued entry, the ROB and fetch queue are fixed ring
 * buffers with O(1) seq indexing, loads that wait behind an older
 * unissued store are parked until that store issues, and cycles in
 * which no stage can do anything are skipped in one jump to the next
 * scheduled event. The model is cycle-for-cycle identical to the
 * historical per-cycle stepper, which is preserved as
 * verify::RefOooCpu and cross-checked continuously by the
 * timing-equivalence oracle (verify/timing_cross.hh) and the golden
 * cycle-count table (tests/timing_golden_test.cc).
 */

#ifndef VISA_CPU_OOO_CPU_HH
#define VISA_CPU_OOO_CPU_HH

#include <bit>
#include <vector>

#include "cpu/bpred.hh"
#include "cpu/cpu.hh"
#include "cpu/fault_port.hh"
#include "cpu/visa_timing.hh"
#include "sim/trace.hh"

namespace visa::prof
{
class BlockProfiler;
} // namespace visa::prof

namespace visa
{

/** Complex-processor structure sizes (paper §3.2). */
struct OooParams
{
    int fetchWidth = 4;
    int dispatchWidth = 4;
    int issueWidth = 4;
    int retireWidth = 4;
    int robSize = 128;
    int iqSize = 64;
    int lsqSize = 64;
    int dcachePorts = 2;
    int fetchQueueSize = 16;
    /** Cycles between fetch and dispatch (front-end depth). */
    int frontLatency = 2;
    unsigned gshareLog2 = 16;
    unsigned indirectLog2 = 16;
};

/** The complex 4-way out-of-order processor with a VISA simple mode. */
class OooCpu final : public Cpu
{
  public:
    enum class Mode { Complex, Simple };

    OooCpu(const Program &prog, MainMemory &mem, Platform &platform,
           MemController &memctrl, const OooParams &params = {});

    void resetForTask() override;
    RunResult run(Cycles max_cycles = noCycleLimit) override;
    void advanceIdle(Cycles n) override;
    Cycles cycles() const override { return cycle_; }
    void flushCachesAndPredictors() override;

    /**
     * Drain the out-of-order engine and reconfigure into simple mode
     * (the missed-checkpoint response). The cycles the drain takes are
     * simulated; the caller additionally charges the fixed
     * reconfiguration overhead via advanceIdle().
     */
    void switchToSimple();

    /** Reconfigure back to complex mode; the pipeline must be idle. */
    void switchToComplex();

    /**
     * Preemption drain (multi-task operation): retire everything in
     * flight without fetching, staying in the current mode. Unlike
     * switchToSimple() the watchdog is live here — an expiry aborts
     * the drain and is reported so the scheduler can run the
     * missed-checkpoint recovery (which finishes the drain itself).
     */
    DrainResult drainForPreemption() override;

    Mode mode() const { return mode_; }

    std::uint64_t branchMispredicts() const { return mispredicts_; }
    const OooParams &params() const { return params_; }

    /**
     * Install (or clear, with nullptr) the fault-injection port
     * (cpu/fault_port.hh). Verification harnesses only — the port is
     * consulted on the complex-mode execute and issue paths; simple
     * mode never takes faults. Not owned. With -DVISA_INJECT=0 the
     * call sites compile out and the installed port is ignored.
     */
    void setFaultPort(FaultPort *port) { faultPort_ = port; }
    FaultPort *faultPort() const { return faultPort_; }

    void buildStats(StatSet &set) const override;

  protected:
    const char *statsName() const override { return "complex"; }

  private:
    // ---- complex engine ----
    struct FetchEntry
    {
        ExecInfo info;
        std::uint64_t seq = 0;
        Cycles fetchCycle = 0;
        bool mispredicted = false;
    };

    struct RobEntry
    {
        ExecInfo info;
        std::uint64_t seq = 0;
        Cycles completeCycle = 0;
        /**
         * Earliest cycle the entry can issue once its last producer has
         * issued: max(dispatch cycle + 1, producers' completeCycle).
         * Folded incrementally — at dispatch for already-issued
         * producers, at wakeup for the rest.
         */
        Cycles readyAt = 0;
        /**
         * Dependence-linked wakeup: consumers registered while this
         * entry was unissued; drained (and their pending counts
         * decremented) the cycle it issues. The vector lives in the
         * ring slot and keeps its capacity across reuse, so the steady
         * state allocates nothing.
         */
        std::vector<std::uint64_t> waiters;
        /** Producers this entry still waits on (0 = data-ready). */
        std::uint8_t pending = 0;
        /**
         * Regfile accesses charged at issue, derived once at dispatch
         * from the same operand-flags load that drives renaming (the
         * historical model re-queried the operand table at issue).
         */
        std::uint8_t regReads = 0;
        bool regWrite = false;
        bool issued = false;
        bool mispredicted = false;
    };

    /** In-flight (dispatched, unretired) non-MMIO store. */
    struct StoreRef
    {
        std::uint64_t seq;
        Addr lo, hi;
    };

    RunResult runComplex(Cycles budget_end);
    RunResult runSimple(Cycles budget_end);

    /**
     * The simple-mode per-instruction loop, templated on whether a
     * tracer is installed so the untraced instantiation carries no
     * tracing code at all (see SimpleCpu::runLoop).
     */
    template <bool Traced>
    RunResult runSimpleLoop(Cycles budget_end);

    // Each stage returns how many instructions it moved this cycle.
    // A cycle where every stage reports zero is the only kind that can
    // start an idle span, so the run loops consult nextEventCycle()
    // (and attempt a skip) only then — busy cycles pay nothing for the
    // event machinery.
    int fetchStage();
    int dispatchStage();
    int issueStage();
    int retireStage();

    /**
     * First future cycle at which any stage can make progress, given
     * the state after this cycle's stages, or noCycleLimit if nothing
     * is scheduled (only possible when the machine is finished). The
     * run loops jump straight to it when it is beyond cycle_ + 1; see
     * DESIGN.md for the argument that the skipped span is observably
     * empty. @p fetching is false inside the drain loops, which run
     * with fetch disabled.
     */
    Cycles nextEventCycle(bool fetching) const;

    /**
     * nextEventCycle() for a cycle in which no stage did any work,
     * with the step loops' forward-progress guard: finding no event
     * while the ROB or fetch queue still holds entries means the
     * machine can never move again, so this raises a FatalError naming
     * the stuck state instead of letting the loop step (or, in the
     * drains, spin) without end.
     */
    Cycles idleNextEvent(bool fetching) const;

    /**
     * Move the parked loads older than @p bound back onto readyList_,
     * merged in seq order into its unscanned tail [@p from, end).
     */
    void releaseParkedLoads(std::uint64_t bound, std::size_t from);

    /**
     * Advance cycle_ to the cycle before @p next (clamped to
     * @p budget_end and, when the watchdog is live, to its expiry
     * cycle), ticking the platform across the whole span at once.
     * @return true if the watchdog expired in the span (cycle_ then
     * sits exactly on the expiry cycle, as the per-cycle stepper would
     * leave it).
     */
    bool skipIdleCycles(Cycles next, Cycles budget_end);

    bool olderStoresIssued(const RobEntry &load) const;
    bool overlapsOlderStore(const RobEntry &load) const;
    int outstandingLoadMisses();

    // ROB sequence numbers are contiguous (dispatch appends, retire
    // pops the front), so an entry's ring slot is an O(1) index off the
    // oldest entry: slot(head + (seq - frontSeq)). Inline: called for
    // every producer of every dispatched instruction.
    RobEntry *
    findBySeq(std::uint64_t seq)
    {
        if (robCount_ == 0)
            return nullptr;
        const std::uint64_t front_seq = rob_[robHead_].seq;
        if (seq < front_seq)
            return nullptr;
        const std::size_t idx =
            static_cast<std::size_t>(seq - front_seq);
        if (idx >= robCount_)
            return nullptr;
        return &rob_[(robHead_ + idx) & robMask_];
    }

    RobEntry &robFront() { return rob_[robHead_]; }
    const RobEntry &robFront() const { return rob_[robHead_]; }
    void
    robPopFront()
    {
        robHead_ = (robHead_ + 1) & robMask_;
        --robCount_;
    }
    /** The slot a new entry dispatches into (fields are overwritten). */
    RobEntry &
    robPushSlot()
    {
        RobEntry &e = rob_[(robHead_ + robCount_) & robMask_];
        ++robCount_;
        return e;
    }

    FetchEntry &fqFront() { return fetchQueue_[fqHead_]; }
    void
    fqPopFront()
    {
        fqHead_ = (fqHead_ + 1) & fqMask_;
        --fqCount_;
    }
    FetchEntry &
    fqPushSlot()
    {
        FetchEntry &e = fetchQueue_[(fqHead_ + fqCount_) & fqMask_];
        ++fqCount_;
        return e;
    }

    Platform::TickResult tickTo(Cycles to);

    bool robFull() const
    {
        return static_cast<int>(robCount_) >= params_.robSize;
    }
    int iqOccupancy() const { return iqCount_; }
    int lsqOccupancy() const { return lsqCount_; }

    OooParams params_;
    Mode mode_ = Mode::Complex;
    Gshare gshare_;
    IndirectPredictor indirect_;

    Cycles cycle_ = 0;
    Cycles ticked_ = 0;
    std::uint64_t seqCounter_ = 0;

    // Fixed ring buffers (capacity = next power of two >= the
    // configured size, so indexing is a mask, not a modulo).
    std::vector<FetchEntry> fetchQueue_;
    std::size_t fqHead_ = 0, fqCount_ = 0, fqMask_ = 0;
    std::vector<RobEntry> rob_;
    std::size_t robHead_ = 0, robCount_ = 0, robMask_ = 0;

    // Last writer (sequence number) of each architectural register.
    std::array<std::int64_t, numIntRegs> lastIntWriter_;
    std::array<std::int64_t, numFpRegs> lastFpWriter_;
    std::int64_t lastFccWriter_ = -1;

    Cycles fetchReadyCycle_ = 0;
    std::int64_t fetchBlockedSeq_ = -1;   ///< unresolved mispredict
    Addr lastFetchBlock_ = ~0u;
    bool haltFetched_ = false;
    int memPortsUsed_ = 0;
    int iqCount_ = 0;
    int lsqCount_ = 0;

    /**
     * Data-ready, unissued entries in program (seq) order: exactly the
     * entries whose pending count is zero, less the parked loads. The
     * issue stage scans only this list — the wakeup-list replacement
     * for the historical sourcesReady() poll over every unissued
     * entry. Entries stay until they issue (width, port and MSHR
     * stalls keep them here; a load blocked by an older unissued store
     * moves to parkedLoads_); a ready entry whose readyAt is still in
     * the future is skipped until that cycle arrives.
     */
    std::vector<std::uint64_t> readyList_;
    /**
     * Loads that reached the issue stage (readyAt arrived, inside the
     * issue width) but wait behind an older unissued store, ascending
     * seq. Off readyList_ they are neither rescanned nor an event;
     * they rejoin it when the store at the front of
     * unissuedStoreSeqs_ issues. Invariants: every parked load has an
     * older unissued store, so an unissued ROB head is never parked.
     */
    std::vector<std::uint64_t> parkedLoads_;
    /** Consumers woken mid-scan; merged into readyList_ after it. */
    std::vector<std::uint64_t> wokenBuf_;
    /**
     * Earliest future cycle the issue stage could issue anything:
     * recomputed by each issueStage() pass, then folded by same-cycle
     * wakeups and dispatches. Feeds nextEventCycle().
     */
    Cycles issueEvent_ = 0;

    /** Unissued non-MMIO stores, ascending seq (front gates loads). */
    std::vector<std::uint64_t> unissuedStoreSeqs_;
    /** In-flight non-MMIO stores, a ring in program order. */
    std::vector<StoreRef> inflightStores_;
    std::size_t storeHead_ = 0, storeCount_ = 0, storeMask_ = 0;
    /** Fill-completion cycles of issued, still-outstanding load misses. */
    std::vector<Cycles> missFillTimes_;

    std::uint64_t mispredicts_ = 0;
    /** Last MshrOccupancy value traced (dedupe: emit per change). */
    int lastMshrTraced_ = -1;
    /** See setFaultPort(). Null on every production path. */
    FaultPort *faultPort_ = nullptr;

    /**
     * The thread's tracer, hoisted once per run() call so the per-cycle
     * stages pay one member load and a predictable branch when tracing
     * is off (see sim/trace.hh's cost model).
     */
    Tracer *tracer_ = nullptr;

    /**
     * The thread's profiler, hoisted like tracer_. Cycle attribution
     * charges each retired instruction the cycles elapsed since the
     * previous retirement (the first retire of a cycle absorbs any
     * stall gap; same-cycle retires charge zero), so attributed
     * cycles never exceed elapsed cycles.
     */
    prof::BlockProfiler *prof_ = nullptr;
    Cycles profLastRetire_ = 0;

    // ---- simple-mode engine (shared VISA timing recurrence) ----
    VisaTimer timer_;
    Cycles timerBase_ = 0;
    Instruction prevInst_;
    bool prevWasLoad_ = false;
    std::uint64_t simpleFetchGroup_ = 0;
};

} // namespace visa

#endif // VISA_CPU_OOO_CPU_HH
