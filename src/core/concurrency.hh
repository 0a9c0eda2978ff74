/**
 * @file
 * Conventional concurrency (paper §1.1, first application): because
 * tasks finish much sooner on the complex pipeline than on the
 * explicitly-safe one, non-real-time and soft real-time work can be
 * scheduled into the slack after the hard real-time task completes
 * each period. This module runs a background (non-RT) program in that
 * slack, preempting it at each period boundary, and reports the
 * throughput the VISA approach unlocks.
 *
 * (The paper's SMT application — running other threads *simultaneously*
 * with the critical task — is explicitly left to future work there and
 * here; this is the conventional-concurrency baseline it compares
 * against.)
 */

#ifndef VISA_CORE_CONCURRENCY_HH
#define VISA_CORE_CONCURRENCY_HH

#include "core/runtime.hh"
#include "cpu/rig.hh"

namespace visa
{

/** Progress of the background workload across periods. */
struct BackgroundStats
{
    std::uint64_t instructionsRetired = 0;
    Cycles cyclesGranted = 0;
    int completions = 0;    ///< times the background program finished
    double slackSeconds = 0.0;
};

/**
 * Runs a hard real-time task under a DvsRuntime and fills the
 * remaining slack of every period with a background program executing
 * on its own (non-critical) core model at the idle operating point.
 */
class SlackScheduler
{
  public:
    /**
     * @param rt        the hard real-time task's run-time system
     * @param bg_prog   the background (non-RT) program; restarted
     *                  whenever it halts
     * @param dvs       the DVS table (the background core runs at the
     *                  floor operating point, where the paper parks
     *                  the processor anyway)
     */
    SlackScheduler(DvsRuntime &rt, const Program &bg_prog,
                   const DvsTable &dvs);

    /**
     * Execute one period: the hard task first, then background work
     * until the period ends. @return the hard task's stats.
     */
    TaskStats runPeriod();

    const BackgroundStats &background() const { return bg_; }

  private:
    DvsRuntime &rt_;
    MHz bgFreq_;
    double period_;

    Rig bgRig_;
    SimpleCpu &bgCpu_;
    std::uint64_t bgRetiredBase_ = 0;
    BackgroundStats bg_;
};

} // namespace visa

#endif // VISA_CORE_CONCURRENCY_HH
