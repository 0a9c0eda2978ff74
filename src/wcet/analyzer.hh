/**
 * @file
 * The static worst-case timing analyzer (paper §3.3, Figure 1).
 *
 * Pipeline:
 *   1. CFG + call graph construction (wcet/cfg).
 *   2. Static I-cache analysis -> caching categorizations (Table 2).
 *   3. Path-level pipeline evaluation on the VISA timing model: every
 *      path through a loop body / function region is timed on the
 *      exact VisaTimer recurrence with worst-case cache outcomes and
 *      static-branch-prediction penalties on the non-predicted edge.
 *      Blocks are lowered to per-instruction records once, at
 *      construction, and paths are timed in DFS order from a stack of
 *      pipeline states, each from its first step that differs from
 *      the previous path; per frequency only timer arithmetic is left.
 *   4. Fix-point loop composition: the first iteration is timed from a
 *      drained pipeline; steady-state iterations use measured
 *      inter-iteration increments over concatenated worst paths
 *      (Healy-style pipeline overlap instead of a drain per
 *      iteration), plus a configurable per-iteration slack. A scope
 *      with more than AnalyzerParams::maxPaths paths is bounded by the
 *      sum of its blocks' and child loops' drained times instead.
 *   5. A bottom-up timing tree over loops and functions, and per
 *      sub-task WCETs aligned with the .subtask markers.
 *
 * The D-cache module follows the paper's interim method verbatim:
 * WCET is padded with worst-case data-miss counts obtained from a
 * dynamic trace (§3.3: "data cache misses are modeled by manually
 * padding WCET based on data cache miss information from the dynamic
 * trace"); see profileDataMisses().
 *
 * Output is parameterized by clock frequency: memory stalls are
 * specified in nanoseconds (Table 1), so cycle-level WCET depends on f.
 */

#ifndef VISA_WCET_ANALYZER_HH
#define VISA_WCET_ANALYZER_HH

#include <map>
#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "wcet/cache_analysis.hh"
#include "wcet/cfg.hh"

namespace visa
{

/** Tunables of the analyzer. */
struct AnalyzerParams
{
    CacheParams icache{"icache", 64 * 1024, 4, 64};
    /** Worst-case memory stall time in ns (Table 1). */
    double memStallNs = 100.0;
    /** Path-enumeration cap per scope; beyond it the scope is bounded
     *  by the sum of its members' drained times. */
    std::size_t maxPaths = 4096;
    /** Cap on paths for pairwise overlap composition. */
    std::size_t maxOverlapPaths = 64;
    /** Extra cycles charged per loop iteration (composition slack). */
    Cycles iterSlack = 0;
};

/** Result of one analyze() call at a given frequency. */
struct WcetReport
{
    MHz frequency = 0;
    /** Per-sub-task WCET in cycles at @ref frequency (index 0 = #1). */
    std::vector<Cycles> subtaskCycles;
    /** Whole-task WCET: the sum of sub-task WCETs (see DESIGN.md). */
    Cycles taskCycles = 0;

    /** Task WCET in microseconds. */
    double
    taskMicros() const
    {
        return static_cast<double>(taskCycles) / frequency;
    }
};

/** Per-sub-task worst-case data-miss counts from a dynamic trace. */
struct DMissProfile
{
    std::vector<std::uint64_t> missesPerSubtask;
    /** Multiplier applied to the padded misses (>= 1 for margin). */
    double safetyFactor = 1.0;
};

/**
 * One charge on a sub-task's WCET bound: a step of the analyzer's
 * worst-case path (or a cache/D-miss pad) with the cycles it
 * contributed. The per-sub-task charges sum *exactly* to the
 * corresponding analyze() sub-task WCET, so profiling tools can join
 * bound-side charges against dynamic block profiles.
 */
struct WcetCharge
{
    enum class Kind { Block, Loop, Call, FirstMiss, DMissPad };
    Kind kind = Kind::Block;
    Addr startPc = 0;     ///< Block: block start; Loop: header;
                          ///< Call: callee entry; pads: 0
    Addr endPc = 0;       ///< Block: exclusive end; others: 0
    std::uint64_t count = 1;    ///< Loop: bound; FirstMiss: blocks;
                                ///< DMissPad: padded misses
    Cycles cycles = 0;
};

/** Printable name of a charge kind ("block", "loop", ...). */
const char *wcetChargeKindName(WcetCharge::Kind kind);

/** Bound-side attribution of every sub-task WCET at one frequency. */
struct WcetAttribution
{
    MHz frequency = 0;
    /** Index 0 = sub-task 1. Sums match analyze().subtaskCycles. */
    std::vector<std::vector<WcetCharge>> subtaskCharges;
};

/** The timing analyzer for one program. */
class WcetAnalyzer
{
  public:
    explicit WcetAnalyzer(const Program &prog, AnalyzerParams params = {});
    ~WcetAnalyzer();

    WcetAnalyzer(const WcetAnalyzer &) = delete;
    WcetAnalyzer &operator=(const WcetAnalyzer &) = delete;

    /**
     * Compute WCETs at core frequency @p f.
     * @param dmiss optional trace-derived data-miss padding
     */
    WcetReport analyze(MHz f, const DMissProfile *dmiss = nullptr) const;

    /**
     * Break every sub-task's WCET bound at @p f into the charges of
     * the analyzer's worst-case path (blocks with pipeline-aware cycle
     * deltas, summarized loops and calls, first-miss and D-miss pads).
     * Per sub-task, the charge cycles sum exactly to the analyze()
     * bound with the same @p dmiss.
     */
    WcetAttribution attribute(MHz f,
                              const DMissProfile *dmiss = nullptr) const;

    /** Number of sub-tasks (1 when the program has no markers). */
    int numSubtasks() const;

    /** The entry function's CFG (diagnostics, tests, examples). */
    const Cfg &mainCfg() const;

    /** The entry function's I-cache categorizations. */
    const ICacheAnalysis &mainCache() const;

    /** Worst-case memory stall cycles at @p f. */
    Cycles missPenalty(MHz f) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run the program once on the simple-fixed processor with cold caches
 * and record per-sub-task data-cache miss counts — the dynamic trace
 * the paper's interim D-cache padding uses.
 */
DMissProfile profileDataMisses(const Program &prog,
                               double safety_factor = 1.0);

} // namespace visa

#endif // VISA_WCET_ANALYZER_HH
