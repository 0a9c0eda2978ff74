#include "chip/chip.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

namespace visa
{
namespace chip
{

ChipCore::ChipCore(Chip &chip, int id)
    : chip_(chip), id_(id), memctrl_(chip.cfg_.memctrl)
{
    if (chip.cfg_.cores > 1) {
        memctrl_.attachBus(&chip.bus_, id);
        // SPMD replica (see the file comment): every core of a
        // multi-core chip free-runs its own image of the program, so
        // concurrent core threads never touch shared functional state.
        privMem_ = std::make_unique<MainMemory>();
        privMem_->loadProgram(chip.prog_);
    }
}

MainMemory &
ChipCore::mem()
{
    return privMem_ ? *privMem_ : chip_.mem_;
}

OooCpu &
ChipCore::makeOoo()
{
    if (ooo_)
        fatal("ChipCore %d: complex pipeline already built", id_);
    ooo_ = std::make_unique<OooCpu>(chip_.prog_, mem(), platform_,
                                    memctrl_);
    return *ooo_;
}

SimpleCpu &
ChipCore::makeSimple()
{
    if (simple_)
        fatal("ChipCore %d: simple pipeline already built", id_);
    simple_ = std::make_unique<SimpleCpu>(chip_.prog_, mem(), platform_,
                                          memctrl_);
    return *simple_;
}

OooCpu &
ChipCore::ooo()
{
    if (!ooo_)
        makeOoo().resetForTask();
    return *ooo_;
}

SimpleCpu &
ChipCore::simple()
{
    if (!simple_)
        makeSimple().resetForTask();
    return *simple_;
}

Chip::Chip(const Program &prog, const ChipConfig &cfg)
    : prog_(prog), cfg_(cfg), bus_(cfg.cores < 1 ? 1 : cfg.cores, cfg.bus)
{
    if (cfg.cores < 1)
        fatal("Chip: need at least one core (got %d)", cfg.cores);
    mem_.loadProgram(prog);
    cores_.reserve(static_cast<std::size_t>(cfg.cores));
    for (int i = 0; i < cfg.cores; ++i)
        cores_.emplace_back(new ChipCore(*this, i));
}

Chip::~Chip() = default;

Chip::RunAllResult
Chip::runAll(Cycles maxCycles, Cycles window)
{
    if (window < 1)
        window = 1;
    RunAllResult res;

    if (cores_.size() == 1) {
        // The historical single-core fast path: one pipeline, no
        // epochs, no per-core trace rings (events flow straight into
        // the caller's tracer, unstamped — byte-compatible with the
        // pre-chip rig).
        OooCpu &cpu = core(0).ooo();
        Cycles spent = 0;
        bool halted = false;
        while (!halted && spent < maxCycles) {
            const Cycles budget =
                std::min<Cycles>(window, maxCycles - spent);
            const Cycles before = cpu.cycles();
            halted = cpu.run(budget).reason == StopReason::Halted;
            // Charge what actually ran: a mid-window halt must not
            // burn the rest of the window's budget.
            spent += std::min<Cycles>(budget, cpu.cycles() - before);
        }
        res.allHalted = halted;
        res.retired = cpu.retired();
        return res;
    }

    // Multi-core: build every core up front (construction is not
    // thread-safe), then free-run them in window-cycle quanta over the
    // worker pool with the bus in epoch-buffered mode. Within a
    // quantum each core sees only the epoch-frozen bus snapshot plus
    // its own requests, so the interleaving of host threads is
    // unobservable; the barrier drain orders all requests by
    // (ns, core id).
    for (std::size_t i = 0; i < cores_.size(); ++i)
        core(static_cast<int>(i)).ooo();

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
            OooCpu &cpu = core(static_cast<int>(live[k])).ooo();
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
        // mid-window this is less than the budget (the satellite fix);
        // when any core ran out of budget it equals the budget.
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
        if (c->hasOoo())
            res.retired += c->ooo_->retired();
    return res;
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
