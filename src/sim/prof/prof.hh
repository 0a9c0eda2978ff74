/**
 * @file
 * Block-granular execution profiler (DESIGN.md §10). Records, per
 * text word and per dynamic basic block:
 *
 *  - execution counts (how often each block/instruction ran),
 *  - edge (block -> block) transfer counts,
 *  - cycle attribution on the timing pipelines (where simulated cycles
 *    actually went, joined per sub-task phase),
 *  - checkpoint observations from the run-time system (AET/PET/WCET
 *    per sub-task, per DVS frequency) for slack attribution reports.
 *
 * Gating follows the tracing discipline of `sim/trace.hh` exactly:
 *
 *  - compile time: building with -DVISA_PROFILING=0 turns
 *    currentProfiler() into a constant nullptr, so every hook folds
 *    away and the profiler contributes no code to the hot paths;
 *  - run time: a thread-local profiler pointer, hoisted into a local
 *    once per run. The timing pipelines pay one predicted branch per
 *    retired instruction (a fraction of the work those loops already
 *    do).
 *
 * Both timing pipelines count through countTimed(), whichever way
 * their functional core dispatches: a "block entry" is an arrival at a
 * PC immediately after a control-transfer instruction executed (taken
 * or not) or at the start of profiling. Sequential continuations —
 * budget pauses inside a block, store-to-code resyncs, falling off the
 * end of text — do not count as entries, so cached and uncached runs
 * of the same program produce identical profiles.
 */

#ifndef VISA_SIM_PROF_PROF_HH
#define VISA_SIM_PROF_PROF_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "sim/types.hh"

#ifndef VISA_PROFILING
#define VISA_PROFILING 1
#endif

namespace visa
{
class StatSet;
} // namespace visa

namespace visa::prof
{

/** Pseudo block id for "profiling started here" edges. */
inline constexpr std::uint32_t entryBlockId = 0xFFFFFFFFu;

/** One checkpoint observation reported by the run-time system. */
struct CheckpointRecord
{
    int subtask = 0;            ///< 1-based sub-task id
    std::uint64_t aet = 0;      ///< measured execution time, cycles
    std::uint64_t pet = 0;      ///< predicted (PET) budget, cycles
    std::uint64_t wcet = 0;     ///< static bound at @ref freq, cycles
    MHz freq = 0;               ///< DVS setting the sub-task ran at
    std::uint64_t stamp = 0;    ///< monotonic cross-task cycle stamp
};

/** Bound-side charge (from the WCET analyzer's worst-case path). */
struct BoundCharge
{
    Addr startPc = 0;
    Addr endPc = 0;    ///< exclusive; 0 when not a text region
    /** "block", "loop", "call", "first_miss" or "dmiss_pad". */
    std::string kind;
    std::uint64_t count = 1;    ///< executions charged (loop: bound)
    std::uint64_t cycles = 0;
};

/** Per-sub-task bound attribution at one frequency. */
struct SubtaskBound
{
    int subtask = 0;    ///< 1-based
    std::uint64_t cycles = 0;
    std::vector<BoundCharge> charges;
};

/** A flattened per-block profile entry (export form). */
struct BlockProfileEntry
{
    Addr pc = 0;
    std::uint32_t words = 0;     ///< instructions in the block extent
    std::uint64_t entries = 0;   ///< times entered
    std::uint64_t insts = 0;     ///< dynamic instructions executed in it
    std::uint64_t cycles = 0;    ///< attributed cycles (timing rigs)
};

/**
 * The per-thread profile accumulator. One instance profiles programs
 * sharing one text image (the text geometry is fixed at construction);
 * install it with ScopedProfiler around the run to record.
 */
class BlockProfiler
{
  public:
    explicit BlockProfiler(const Program &prog);

    // ------------------------------------------------------------------
    // Hot paths (called with a hoisted non-null profiler pointer).
    // ------------------------------------------------------------------

    /** One committed instruction on a timing pipeline. */
    void
    countTimed(Addr pc, bool control, Cycles delta)
    {
        const std::size_t w = wordOf(pc);
        if (w >= nwords_) [[unlikely]]
            return;
        if (pendingEntry_)
            enterBlock(static_cast<std::uint32_t>(w));
        ++instCount_[w];
        instCycles_[w] += delta;
        attributedCycles_ += delta;
        phaseCycles_[phaseIdx_] += delta;
        pendingEntry_ = control;
    }

    // ------------------------------------------------------------------
    // Cold paths.
    // ------------------------------------------------------------------

    /** Sub-task phase switch (Platform checkpoint register store). */
    void setPhase(int subtask);

    /** A checkpoint observation from the run-time system. */
    void recordCheckpoint(const CheckpointRecord &rec);

    /** Cycles spent outside any instruction (idle, DVS software). */
    void addUnattributed(Cycles c) { unattributedCycles_ += c; }

    /** Bound-side inputs for the slack report (set before export). */
    void setWcetBound(MHz freq, std::vector<std::uint64_t> subtask_cycles);
    void setBoundAttribution(std::vector<SubtaskBound> attribution);

    // ------------------------------------------------------------------
    // Results.
    // ------------------------------------------------------------------

    /** Total dynamic instructions recorded. */
    std::uint64_t totalInsts() const;
    /** Cycles attributed to instructions by the timing pipelines. */
    std::uint64_t attributedCycles() const { return attributedCycles_; }
    std::uint64_t unattributedCycles() const { return unattributedCycles_; }
    /** Total block entries recorded. */
    std::uint64_t totalEntries() const { return totalEntries_; }
    /** Sum of all reported sub-task AETs. */
    std::uint64_t aetCyclesTotal() const { return aetTotal_; }

    /** Flatten into per-block entries, hottest (by cycles, then insts,
     *  then pc) first. */
    std::vector<BlockProfileEntry> blocks() const;

    /** Edge map: key = (from block word << 32) | to block word, with
     *  from == entryBlockId for profiling-start edges. */
    const std::unordered_map<std::uint64_t, std::uint64_t> &
    edges() const
    {
        return edges_;
    }

    const std::vector<CheckpointRecord> &checkpoints() const
    {
        return checkpoints_;
    }

    /** Cycles per sub-task phase (index 0 = outside any sub-task). */
    const std::vector<std::uint64_t> &phaseCycles() const
    {
        return phaseCycles_;
    }

    Addr textBase() const { return base_; }
    std::size_t textWords() const { return nwords_; }
    const Program &program() const { return *prog_; }

    /** Per-word execution count (for tests). */
    const std::vector<std::uint64_t> &instCounts() const
    {
        return instCount_;
    }

    /** Contribute a "prof" group to the versioned stats tree. */
    void buildStats(StatSet &set) const;

    /**
     * Full profile document: hierarchical JSON (traceSchemaVersion-stamped) with block
     * table (with disassembly), edge list, per-phase cycles, checkpoint
     * records, slack aggregates and headroom histograms per DVS
     * frequency, and the bound-side attribution when provided.
     */
    void writeJson(std::ostream &os) const;

    /**
     * Perfetto counter-track sink: per-sub-task slack / AET counter
     * tracks over the monotonic checkpoint stamps, loadable in the
     * same viewers as Tracer::writeChromeTrace output.
     */
    void writeChromeCounters(std::ostream &os) const;

  private:
    std::size_t
    wordOf(Addr pc) const
    {
        return static_cast<std::size_t>(pc - base_) >> 2;
    }

    void
    enterBlock(std::uint32_t w)
    {
        ++blockCount_[w];
        ++totalEntries_;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(lastBlock_) << 32) | w;
        ++edges_[key];
        lastBlock_ = w;
        pendingEntry_ = false;
    }

    const Program *prog_;
    Addr base_ = 0;
    std::size_t nwords_ = 0;

    std::vector<std::uint64_t> instCount_;     ///< per word
    std::vector<std::uint64_t> instCycles_;    ///< per word
    std::vector<std::uint64_t> blockCount_;    ///< entries per word
    std::unordered_map<std::uint64_t, std::uint64_t> edges_;

    bool pendingEntry_ = true;    ///< first arrival counts as an entry
    std::uint32_t lastBlock_ = entryBlockId;

    std::uint64_t totalEntries_ = 0;
    std::uint64_t attributedCycles_ = 0;
    std::uint64_t unattributedCycles_ = 0;

    int phaseIdx_ = 0;
    std::vector<std::uint64_t> phaseCycles_{0};

    std::vector<CheckpointRecord> checkpoints_;
    std::uint64_t aetTotal_ = 0;

    std::vector<std::pair<MHz, std::vector<std::uint64_t>>> bounds_;
    std::vector<SubtaskBound> boundAttr_;
};

namespace detail
{
extern thread_local BlockProfiler *tlsProfiler;
} // namespace detail

/** The calling thread's installed profiler, or nullptr. */
inline BlockProfiler *
currentProfiler()
{
#if VISA_PROFILING
    return detail::tlsProfiler;
#else
    return nullptr;
#endif
}

/**
 * Install @p prof as the calling thread's profiler (nullptr disables
 * profiling). @return the previously installed profiler.
 */
BlockProfiler *installProfiler(BlockProfiler *prof);

/** RAII profiler installation for tools and tests. */
class ScopedProfiler
{
  public:
    explicit ScopedProfiler(BlockProfiler &prof)
        : prev_(installProfiler(&prof))
    {
    }
    ~ScopedProfiler() { installProfiler(prev_); }
    ScopedProfiler(const ScopedProfiler &) = delete;
    ScopedProfiler &operator=(const ScopedProfiler &) = delete;

  private:
    BlockProfiler *prev_;
};

} // namespace visa::prof

#endif // VISA_SIM_PROF_PROF_HH
