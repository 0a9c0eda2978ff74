#include "chip/chip.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

namespace visa
{
namespace chip
{

Chip::Chip(const Program &prog, int cores)
    : prog_(prog), bus_(cores < 1 ? 1 : cores)
{
    if (cores < 1)
        fatal("Chip: need at least one core (got %d)", cores);
    cores_.reserve(static_cast<std::size_t>(cores));
    for (int i = 0; i < cores; ++i) {
        cores_.push_back(std::make_unique<Rig>(prog));
        // One core has nothing to contend with and keeps the static
        // memory penalty of a plain rig.
        if (cores > 1)
            cores_.back()->memctrl().attachBus(&bus_, i);
    }
}

Chip::~Chip() = default;

Chip::RunAllResult
Chip::runAll(Cycles maxCycles, Cycles window)
{
    if (window < 1)
        window = 1;
    RunAllResult res;

    // Free-run the cores in window-cycle quanta over the worker pool
    // with the bus in epoch-buffered mode. Within a quantum each core
    // sees only the epoch-frozen bus snapshot plus its own requests,
    // so the interleaving of host threads is unobservable; the barrier
    // drain orders all requests by (ns, core id).
    Tracer *const tr = currentTracer();
    std::vector<Tracer> rings;
    if (tr) {
        rings.reserve(cores_.size());
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            rings.emplace_back(tr->capacity());
            rings.back().setKindMask(tr->kindMask());
            rings.back().setCoreId(static_cast<int>(i));
        }
    }

    std::vector<std::size_t> live(cores_.size());
    for (std::size_t i = 0; i < live.size(); ++i)
        live[i] = i;
    Cycles spent = 0;
    while (!live.empty() && spent < maxCycles) {
        const Cycles budget = std::min<Cycles>(window, maxCycles - spent);
        std::vector<Cycles> used(live.size(), 0);
        std::vector<char> halted(live.size(), 0);
        bus_.beginEpoch();
        parallelFor(live.size(), [&](std::size_t k) {
            Cpu &cpu = core(static_cast<int>(live[k])).cpu();
            Tracer *const ring = tr ? &rings[live[k]] : nullptr;
            Tracer *const prev = ring ? installTracer(ring) : nullptr;
            const Cycles before = cpu.cycles();
            halted[k] = cpu.run(budget).reason == StopReason::Halted;
            used[k] = cpu.cycles() - before;
            if (ring)
                installTracer(prev);
        });
        bus_.drainEpoch();
        if (tr)
            Tracer::mergeInto(*tr, rings);
        // Charge the longest actual run: when every live core halts
        // mid-window this is less than the budget; when any core ran
        // out of budget it equals the budget.
        Cycles maxUsed = 0;
        for (std::size_t k = 0; k < live.size(); ++k)
            maxUsed = std::max(maxUsed, used[k]);
        spent += std::min<Cycles>(budget, std::max<Cycles>(maxUsed, 1));
        // Halted cores leave the schedule.
        std::vector<std::size_t> still;
        still.reserve(live.size());
        for (std::size_t k = 0; k < live.size(); ++k)
            if (!halted[k])
                still.push_back(live[k]);
        live.swap(still);
    }
    res.allHalted = live.empty();
    for (const auto &c : cores_)
        res.retired += c->cpu().retired();
    return res;
}

RunResult
Chip::runAlone(int i, Cycles maxCycles)
{
    bus_.beginEpoch();
    const RunResult r = core(i).cpu().run(maxCycles);
    bus_.drainEpoch();
    return r;
}

void
Chip::buildStats(StatSet &set) const
{
    StatGroup &g = set.group("chip.bus");
    g.scalar("requests", "misses routed over the shared bus")
        .set(bus_.requests());
    g.scalar("l2_hits", "shared-L2 tag hits").set(bus_.l2Hits());
    g.scalar("bank_conflicts", "requests that waited on a busy bank")
        .set(bus_.bankConflicts());
    g.scalar("mshr_stalls", "requests that waited for a chip MSHR")
        .set(bus_.mshrStalls());
    g.scalar("bank_wait_ns", "total queueing delay behind busy banks, ns")
        .set(static_cast<std::uint64_t>(bus_.bankWaitNs()));
    g.scalar("mshr_wait_ns",
             "total stall waiting for a free chip MSHR, ns")
        .set(static_cast<std::uint64_t>(bus_.mshrWaitNs()));
}

} // namespace chip
} // namespace visa
