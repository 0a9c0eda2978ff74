#include "verify/timing_cross.hh"

#include <bit>
#include <cinttypes>
#include <deque>
#include <vector>

#include "cpu/rig.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "verify/ref_ooo_cpu.hh"

namespace visa::verify
{

namespace
{

bool
eventsEqual(const TraceEvent &a, const TraceEvent &b)
{
    return a.kind == b.kind && a.cycle == b.cycle && a.a == b.a &&
           a.b == b.b && a.c == b.c && a.d == b.d;
}

void
describeEvent(std::string &out, std::uint64_t index, const TraceEvent &e)
{
    const EventKindInfo &info = eventKindInfo(e.kind);
    out += strprintf("  #%-8" PRIu64 " [%10" PRIu64 "] %s.%s a=0x%" PRIX64
                     " b=%" PRIu64 " c=%" PRIu64 "\n", index, e.cycle,
                     info.category, info.name, e.a, e.b, e.c);
}

/** One core plus its private tracer and drained event stream. */
template <typename CpuT>
struct XSide
{
    XSide(const Program &prog, const char *label)
        : name(label), rig(prog), cpu(&rig.build<CpuT>())
    {
    }

    void
    runSlice(Cycles n)
    {
        if (halted)
            return;
        ScopedTracer st(tracer);
        if (cpu->run(n).reason == StopReason::Halted)
            halted = true;
    }

    /** Move the tracer ring into the compare buffer. */
    bool
    drainEvents()
    {
        if (tracer.dropped() != 0)
            return false;    // slice too large for the ring: harness bug
        const std::size_t n = tracer.size();
        for (std::size_t i = 0; i < n; ++i)
            events.push_back(tracer.at(i));
        tracer.clear();
        return true;
    }

    /** Discard @p n compared events, keeping a context window. */
    void
    consume(std::size_t n, std::size_t keep)
    {
        for (std::size_t i = n >= keep ? n - keep : 0; i < n; ++i)
            history.push_back(events[i]);
        while (history.size() > keep)
            history.pop_front();
        events.erase(events.begin(),
                     events.begin() + static_cast<std::ptrdiff_t>(n));
        consumed += n;
    }

    /** Mode switches record through currentTracer(); install ours. */
    void
    toSimple()
    {
        ScopedTracer st(tracer);
        cpu->switchToSimple();
    }

    void
    toComplex()
    {
        ScopedTracer st(tracer);
        cpu->switchToComplex();
    }

    const char *name;
    Rig rig;
    CpuT *cpu;
    Tracer tracer{1 << 16};
    std::vector<TraceEvent> events;
    std::deque<TraceEvent> history;
    std::uint64_t consumed = 0;
    bool halted = false;
};

template <typename SideT>
void
appendContext(std::string &out, const SideT &s, std::size_t upTo)
{
    out += strprintf("%s event stream:\n", s.name);
    std::uint64_t idx = s.consumed - s.history.size();
    for (const TraceEvent &e : s.history)
        describeEvent(out, idx++, e);
    idx = s.consumed;
    for (std::size_t i = 0; i < upTo && i < s.events.size(); ++i)
        describeEvent(out, idx++, s.events[i]);
}

template <typename RefT, typename CandT>
std::string
divergenceReport(const RefT &ref, const CandT &cand,
                 const TimingCrossOptions &opts, const char *what)
{
    std::string out;
    out += strprintf("timing divergence: %s\n", what);
    out += strprintf("  first differing event: #%" PRIu64 "\n", ref.consumed);
    const std::size_t upTo = static_cast<std::size_t>(opts.reportWindow);
    appendContext(out, ref, upTo);
    appendContext(out, cand, upTo);
    return out;
}

} // namespace

TimingCrossResult
runTimingCross(const Program &prog, const TimingCrossOptions &opts)
{
    TimingCrossResult res;

    XSide<RefOooCpu> ref(prog, "reference(per-cycle)");
    XSide<OooCpu> cand(prog, "candidate(event-driven)");
    if (opts.prepareCandidate)
        opts.prepareCandidate(*cand.cpu);

    const std::size_t keep = static_cast<std::size_t>(opts.reportWindow);
    // 0: complex, 1: simple-mode dwell pending, 2: done switching.
    int switchPhase = opts.modeSwitchAtCycle > 0 ? 0 : 2;
    Cycles switchBackAt = 0;

    for (;;) {
        ref.runSlice(opts.sliceCycles);
        cand.runSlice(opts.sliceCycles);
        if (!ref.drainEvents() || !cand.drainEvents()) {
            res.diverged = true;
            res.report = "timing cross-check internal error: "
                         "tracer ring overflowed a slice\n";
            return res;
        }

        const std::size_t n =
            std::min(ref.events.size(), cand.events.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (!eventsEqual(ref.events[i], cand.events[i])) {
                res.diverged = true;
                ref.consume(i, keep);
                cand.consume(i, keep);
                res.report = divergenceReport(ref, cand, opts,
                                              "event streams differ");
                return res;
            }
        }
        ref.consume(n, keep);
        cand.consume(n, keep);
        res.eventsCompared += n;
        res.cycles = ref.cpu->cycles();

        if (ref.halted && cand.halted)
            break;
        if (ref.cpu->cycles() > opts.maxCycles ||
            cand.cpu->cycles() > opts.maxCycles) {
            res.timedOut = true;
            res.report += strprintf("timing cross-check timeout: ref %s @%"
                                    PRIu64 ", cand %s @%" PRIu64 "\n",
                                    ref.halted ? "halted" : "running",
                                    ref.cpu->cycles(),
                                    cand.halted ? "halted" : "running",
                                    cand.cpu->cycles());
            return res;
        }

        // Optional mid-run reconfiguration: both sides drain into
        // simple mode together (the ModeSwitchDrain events then pin
        // the exact drain length), dwell, and reconfigure back.
        if (switchPhase == 0 && !ref.halted && !cand.halted &&
            ref.cpu->cycles() >= opts.modeSwitchAtCycle &&
            cand.cpu->cycles() >= opts.modeSwitchAtCycle) {
            ref.toSimple();
            cand.toSimple();
            switchBackAt = std::max(ref.cpu->cycles(),
                                    cand.cpu->cycles()) +
                           opts.modeSwitchDwell;
            switchPhase = 1;
        } else if (switchPhase == 1 && !ref.halted && !cand.halted &&
                   ref.cpu->cycles() >= switchBackAt &&
                   cand.cpu->cycles() >= switchBackAt) {
            ref.toComplex();
            cand.toComplex();
            switchPhase = 2;
        }
    }

    // Tail events past the shorter stream.
    if (ref.events.size() != cand.events.size()) {
        res.diverged = true;
        res.report = divergenceReport(
            ref, cand, opts,
            ref.events.size() > cand.events.size()
                ? "reference emitted events the candidate did not"
                : "candidate emitted events the reference did not");
        return res;
    }

    std::string diff;
    if (ref.cpu->cycles() != cand.cpu->cycles())
        diff += strprintf("final cycles: ref=%" PRIu64 " cand=%" PRIu64 "\n",
                          ref.cpu->cycles(), cand.cpu->cycles());
    if (ref.cpu->retired() != cand.cpu->retired())
        diff += strprintf("retired: ref=%" PRIu64 " cand=%" PRIu64 "\n",
                          ref.cpu->retired(), cand.cpu->retired());
    if (ref.cpu->branchMispredicts() != cand.cpu->branchMispredicts())
        diff += strprintf(
            "branch mispredicts: ref=%" PRIu64 " cand=%" PRIu64 "\n",
            ref.cpu->branchMispredicts(), cand.cpu->branchMispredicts());
    const Platform &refPlat = ref.rig.platform();
    const Platform &candPlat = cand.rig.platform();
    if (refPlat.lastChecksum() != candPlat.lastChecksum() ||
        refPlat.checksumReported() != candPlat.checksumReported())
        diff += strprintf("checksum: ref=0x%08X(%d) cand=0x%08X(%d)\n",
                          refPlat.lastChecksum(), refPlat.checksumReported(),
                          candPlat.lastChecksum(),
                          candPlat.checksumReported());
    // Architectural backstop: a datapath bug whose corrupted values
    // never reach a branch, an address, or the MMIO checksum is
    // invisible in the event stream, but it always leaves the final
    // register state different (the lockstep harness would catch it
    // per-instruction; here the end state suffices).
    const ArchState &ra = ref.cpu->arch();
    const ArchState &ca = cand.cpu->arch();
    if (ra.pc != ca.pc)
        diff += strprintf("final pc: ref=0x%" PRIX64 " cand=0x%" PRIX64 "\n",
                          static_cast<std::uint64_t>(ra.pc),
                          static_cast<std::uint64_t>(ca.pc));
    if (ra.fcc != ca.fcc)
        diff += strprintf("final fcc: ref=%d cand=%d\n", ra.fcc, ca.fcc);
    for (int r = 0; r < numIntRegs; ++r)
        if (ra.intRegs[static_cast<std::size_t>(r)] !=
            ca.intRegs[static_cast<std::size_t>(r)])
            diff += strprintf("final r%d: ref=0x%08X cand=0x%08X\n", r,
                              static_cast<unsigned>(
                                  ra.intRegs[static_cast<std::size_t>(r)]),
                              static_cast<unsigned>(
                                  ca.intRegs[static_cast<std::size_t>(r)]));
    for (int r = 0; r < numFpRegs; ++r)
        // Bit-pattern compare: value compare would flag identical NaNs.
        if (std::bit_cast<std::uint64_t>(
                ra.fpRegs[static_cast<std::size_t>(r)]) !=
            std::bit_cast<std::uint64_t>(
                ca.fpRegs[static_cast<std::size_t>(r)]))
            diff += strprintf("final f%d differs\n", r);
    if (!diff.empty()) {
        res.diverged = true;
        res.report = "timing divergence: final state differs\n" + diff;
        return res;
    }

    res.cycles = ref.cpu->cycles();
    res.equivalent = true;
    return res;
}

} // namespace visa::verify
