/**
 * @file
 * Process-wide parallel execution for independent simulation arms.
 * Experiment campaigns (bench/) are embarrassingly parallel: each arm
 * owns a private MainMemory/Platform/MemController/Cpu rig and only
 * shares immutable inputs (Program, WcetTable, DvsTable), so the only
 * requirement on the runner is that results are collected in
 * deterministic input order — which parallelFor guarantees regardless
 * of execution interleaving.
 *
 * Since PR 10 every parallelFor call shares ONE process-wide helping
 * pool (detail::WorkPool): campaign fan-out and intra-chip per-core
 * threads draw from the same simThreads()-sized worker set, and a
 * nested parallelFor never spawns extra threads — the nested caller
 * claims its own indices while idle workers steal them, so chip-inside-
 * campaign parallelism cannot oversubscribe the host.
 */

#ifndef VISA_SIM_PARALLEL_HH
#define VISA_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

namespace visa
{

/**
 * Worker-thread count for parallel campaigns: the VISA_THREADS
 * environment variable when set (clamped to >= 1), otherwise
 * std::thread::hardware_concurrency(). VISA_THREADS=1 forces serial
 * execution; tests also use it to exercise the pool on single-core
 * machines.
 */
unsigned simThreads();

namespace detail
{

/**
 * The process-wide helping pool behind parallelFor(). One instance per
 * process; worker threads are lazily spawned up to the largest
 * simThreads() demand ever seen and then parked on a condition
 * variable, so the pool costs nothing while no parallelFor runs.
 *
 * Scheduling model: each run() call is a "group" of n indices. The
 * caller participates — it claims indices of its own group first, then
 * steals from any other active group — and workers claim from the
 * oldest active group. A caller blocks only when every index anywhere
 * is already being executed, so nested run() calls (a worker's arm
 * itself calling parallelFor) make progress on the caller's own stack
 * instead of waiting for a free worker: nesting can never deadlock and
 * never grows the thread count.
 */
class WorkPool
{
  public:
    /** The singleton (leaked: workers park forever, never joined). */
    static WorkPool &instance();

    /**
     * Run fn(0)..fn(n-1) across the pool with at most @p threads
     * concurrent executors (including the caller); blocks until all n
     * finished, then rethrows the lowest-index exception, if any.
     * Requires n >= 2 and threads >= 2 (parallelFor handles the serial
     * cases inline).
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn,
             unsigned threads);

  private:
    /** One run() call: its indices and completion/exception state. */
    struct Group
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        std::size_t next = 0;        ///< next unclaimed index
        std::size_t finished = 0;    ///< indices fully executed
        std::vector<std::exception_ptr> *errors = nullptr;
    };

    WorkPool() = default;

    /** Spawn detached workers until @p target exist. */
    void ensureWorkers(unsigned target);
    /** A group with unclaimed indices (@p prefer first), or nullptr. */
    Group *claimable(Group *prefer);
    /** Execute index @p idx of @p g (drops the lock while running). */
    void runIndex(Group &g, std::size_t idx,
                  std::unique_lock<std::mutex> &lock);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable haveWork_;    ///< workers: new group pushed
    std::condition_variable progress_;    ///< callers: group finished
    std::vector<Group *> active_;         ///< groups with unclaimed work
    unsigned workers_ = 0;
};

} // namespace detail

/**
 * Run fn(0) .. fn(n-1) over the process-wide pool, capped at
 * simThreads() concurrent executors (the caller participates). Blocks
 * until all calls finish.
 *
 * Deterministic by construction: which thread runs which index is
 * unspecified, but each index runs exactly once and any exceptions are
 * rethrown as if execution had been serial — the one thrown by the
 * lowest index wins; the other arms still run to completion.
 *
 * Nesting is safe AND free: a nested call claims its own indices on
 * the calling thread while idle workers steal the rest, so the thread
 * count never exceeds simThreads() no matter how deep campaigns and
 * intra-chip parallelism stack.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace visa

#endif // VISA_SIM_PARALLEL_HH
