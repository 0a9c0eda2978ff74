/**
 * @file
 * The five visa-bench workloads. Each is a closed loop with one
 * client: a unit (a task instance, a schedule, a generated program)
 * starts only after the previous one finished. setup() derives every
 * input from the seed and analyses the programs; round() runs a fixed
 * number of units and must do identical simulated work on every call,
 * which the per-round digest checks.
 */

#ifndef VISA_BENCH_WORKLOADS_HH
#define VISA_BENCH_WORKLOADS_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "setup.hh"

namespace visa::vbench
{

/**
 * What one round simulated and checked. Everything here is a pure
 * function of the inputs, so two rounds of one run must agree exactly.
 */
struct Counters
{
    /** Retired simulated instructions (the sim_mips numerator). */
    std::uint64_t instructions = 0;
    std::uint64_t units = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;    ///< the first few, described
    /** FNV-1a over every unit's outcome. */
    std::uint64_t digest = 0xcbf29ce484222325ULL;

    // Complex (out-of-order) cores the benchmark can see.
    std::uint64_t complexRetired = 0;
    std::uint64_t complexCycles = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l1iAccesses = 0, l1iMisses = 0;
    /** Complex-core branch mispredictions; only fig2_energy, which
     *  drives task instances itself, sees them (the counter resets
     *  every task). */
    std::uint64_t branchMispredicts = 0;
    // Functional-core block cache, every core.
    std::uint64_t blockHits = 0, blocksDecoded = 0;

    // Run-time system.
    std::uint64_t instances = 0;          ///< task instances / jobs
    std::uint64_t checkpointMisses = 0;
    std::uint64_t restarts = 0;
    std::uint64_t restartPages = 0;
    double fSpecSum = 0.0;                ///< complex arms, MHz
    std::uint64_t fSpecCount = 0;
    double fSimpleSum = 0.0;              ///< simple-fixed arms, MHz
    std::uint64_t fSimpleCount = 0;

    // Scheduler.
    std::uint64_t preemptions = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t freqChanges = 0;

    // Chip bus (multi-core schedules).
    std::uint64_t busRequests = 0, l2Hits = 0;
    std::uint64_t bankWaitNs = 0, mshrWaitNs = 0;

    // Verification.
    std::uint64_t programs = 0;
    std::uint64_t programInstructions = 0;

    // Modelled outcomes.
    /** Per kernel x deadline: 100 * (1 - P_visa / P_simple). */
    std::vector<double> energySavingsPct;
    /** min over deadline-bearing units of slack / relative deadline. */
    double minSlackFrac = std::numeric_limits<double>::infinity();

    void fold(const void *data, std::size_t bytes);
    void fold(const std::string &s) { fold(s.data(), s.size()); }
    void fold(std::uint64_t v) { fold(&v, sizeof v); }
    /** Count one unit; a failed unit is described in @p what. */
    void unit(bool ok, const std::string &what);
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Derive the inputs and analyse the programs, from scratch. */
    virtual void setup() = 0;
    /** Run one round of units, accumulating into @p c. */
    virtual void round(Counters &c) = 0;

    /** The programs the last setup() analysed. */
    const std::vector<std::unique_ptr<Analysed>> &
    analysed() const
    {
        return analysed_;
    }

  protected:
    std::vector<std::unique_ptr<Analysed>> analysed_;
};

struct WorkloadInfo
{
    const char *name;
    const char *why;
    /** Runs the simulated cores on host threads (VISA_THREADS > 1). */
    bool hostParallel;
};

const std::vector<WorkloadInfo> &workloadList();

/** nullptr for unknown names. @p scale multiplies the units per round. */
std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  double scale);

} // namespace visa::vbench

#endif // VISA_BENCH_WORKLOADS_HH
