#include "sim/parallel.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace visa
{

unsigned
simThreads()
{
    if (const char *env = std::getenv("VISA_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && v >= 1)
            return static_cast<unsigned>(v);
        return 1;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace detail
{

WorkPool &
WorkPool::instance()
{
    // Deliberately leaked: the detached workers park on mutex_/
    // haveWork_ forever, so the pool must outlive every static
    // destructor that might still touch it.
    static WorkPool *pool = new WorkPool;
    return *pool;
}

void
WorkPool::ensureWorkers(unsigned target)
{
    while (workers_ < target) {
        ++workers_;
        // Detached: workers never exit (they hold no state beyond the
        // leaked pool), and detaching keeps sanitizer thread-leak
        // accounting quiet at process exit.
        std::thread([this] { workerLoop(); }).detach();
    }
}

WorkPool::Group *
WorkPool::claimable(Group *prefer)
{
    if (prefer && prefer->next < prefer->n)
        return prefer;
    // Oldest group first: outer campaigns drain before later arrivals,
    // which keeps the steal pattern close to FIFO.
    for (Group *g : active_)
        if (g->next < g->n)
            return g;
    return nullptr;
}

void
WorkPool::runIndex(Group &g, std::size_t idx,
                   std::unique_lock<std::mutex> &lock)
{
    lock.unlock();
    try {
        (*g.fn)(idx);
    } catch (...) {
        (*g.errors)[idx] = std::current_exception();
    }
    lock.lock();
    if (++g.finished == g.n)
        progress_.notify_all();
}

void
WorkPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        Group *work = claimable(nullptr);
        if (!work) {
            haveWork_.wait(
                lock, [this] { return claimable(nullptr) != nullptr; });
            continue;
        }
        const std::size_t idx = work->next++;
        if (work->next == work->n)
            active_.erase(
                std::find(active_.begin(), active_.end(), work));
        runIndex(*work, idx, lock);
    }
}

void
WorkPool::run(std::size_t n, const std::function<void(std::size_t)> &fn,
              unsigned threads)
{
    // One exception slot per index so a failure in arm i is rethrown
    // exactly as a serial loop would have surfaced it (lowest index
    // first), independent of thread interleaving.
    std::vector<std::exception_ptr> errors(n);
    Group g;
    g.fn = &fn;
    g.n = n;
    g.errors = &errors;

    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t concurrency = std::min<std::size_t>(threads, n);
    ensureWorkers(static_cast<unsigned>(concurrency) - 1);
    active_.push_back(&g);
    haveWork_.notify_all();
    progress_.notify_all();

    // Help: own group first, then steal from any other active group
    // (the only way new claimable work can appear while we wait).
    while (g.finished < g.n) {
        Group *work = claimable(&g);
        if (!work) {
            progress_.wait(lock, [&] {
                return g.finished >= g.n || claimable(&g) != nullptr;
            });
            continue;
        }
        const std::size_t idx = work->next++;
        if (work->next == work->n)
            active_.erase(
                std::find(active_.begin(), active_.end(), work));
        runIndex(*work, idx, lock);
    }
    lock.unlock();

    for (std::size_t i = 0; i < n; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);
}

} // namespace detail

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    const unsigned threads = simThreads();
    if (n == 1 || threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    detail::WorkPool::instance().run(n, fn, threads);
}

} // namespace visa
