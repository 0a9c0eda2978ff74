/**
 * @file
 * Per-frequency, per-sub-task WCET tables. The analyzer's memory
 * stalls are specified in nanoseconds, so the cycle-level WCET differs
 * per DVS setting (paper §2.1: "there is a different WCET for each
 * frequency setting"); this table precomputes all of them.
 *
 * The table is dense: one row per DVS setting, in the order of the
 * DvsTable it was built from, holding the sub-task cycles, the task
 * total and every remainingSeconds() value, so the EQ 1-4 arithmetic
 * reads its WCET terms instead of re-summing them (DESIGN.md §6).
 */

#ifndef VISA_CORE_WCET_TABLE_HH
#define VISA_CORE_WCET_TABLE_HH

#include <cstddef>
#include <span>
#include <vector>

#include "power/dvs.hh"
#include "wcet/analyzer.hh"

namespace visa
{

/** WCET_{k,f} for every sub-task k and DVS setting f. */
class WcetTable
{
  public:
    /**
     * Run the analyzer at every operating point of @p dvs.
     * @param dmiss optional trace-based D-cache padding (§3.3)
     */
    WcetTable(const WcetAnalyzer &analyzer, const DvsTable &dvs,
              const DMissProfile *dmiss = nullptr);

    int numSubtasks() const { return numSubtasks_; }

    /** WCET of sub-task @p k (0-based) in cycles at @p f. */
    Cycles subtaskCycles(int k, MHz f) const;

    /** WCET of sub-task @p k in seconds at @p f. */
    double
    subtaskSeconds(int k, MHz f) const
    {
        return static_cast<double>(subtaskCycles(k, f)) / (f * 1e6);
    }

    /** Whole-task WCET in cycles at @p f (sum over sub-tasks). */
    Cycles taskCycles(MHz f) const { return taskCycles_[rowOf(f)]; }

    /** Whole-task WCET in seconds at @p f. */
    double
    taskSeconds(MHz f) const
    {
        return static_cast<double>(taskCycles(f)) / (f * 1e6);
    }

    /**
     * Sum of sub-task WCET seconds for sub-tasks k..S-1 at @p f, for
     * k in [0, S]; k = S is the empty tail (0). Any other k is a
     * FatalError.
     */
    double remainingSeconds(int k, MHz f) const;

    /** Row index of operating point @p f; FatalError if @p f has none. */
    std::size_t rowOf(MHz f) const;

    /** Row @p r's remainingSeconds(k, f) for k in [0, S], S + 1 entries. */
    std::span<const double>
    remainingRow(std::size_t r) const
    {
        const auto s = static_cast<std::size_t>(numSubtasks_) + 1;
        return {remaining_.data() + r * s, s};
    }

  private:
    int numSubtasks_ = 0;
    /** Row r's operating point, in the DvsTable's (ascending) order. */
    std::vector<MHz> freqs_;
    std::vector<Cycles> taskCycles_;
    /** Row-major: S sub-task WCETs per row. */
    std::vector<Cycles> cycles_;
    /** Row-major: S + 1 remaining times per row. */
    std::vector<double> remaining_;
};

} // namespace visa

#endif // VISA_CORE_WCET_TABLE_HH
