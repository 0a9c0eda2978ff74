#include "verify/lockstep.hh"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <deque>
#include <optional>
#include <vector>

#include "cpu/rig.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace visa::verify
{

namespace
{

/** Cycles simulated per scheduling slice. */
constexpr Cycles sliceCycles = 8192;
/** Records accumulated per side before a compare pass. */
constexpr std::size_t chunkRecords = 4096;

/** One program-order architectural step, as recorded by the observer. */
struct StepRecord
{
    Addr pc = 0;
    Addr nextPc = 0;
    Addr effAddr = 0;
    /** Destination value (int zero-extended / FP bit pattern) or
     *  store data; meaningless when no flag below claims it. */
    std::uint64_t value = 0;
    Instruction inst;
    std::uint8_t flags = 0;

    static constexpr std::uint8_t hasIntDest = 1u << 0;
    static constexpr std::uint8_t hasFpDest = 1u << 1;
    static constexpr std::uint8_t fccSet = 1u << 2;
    static constexpr std::uint8_t isStore = 1u << 3;
    static constexpr std::uint8_t isMmio = 1u << 4;
};

std::uint64_t
fpBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, 8);
    return bits;
}

/** Appends every executed instruction to a buffer. */
class Recorder final : public ExecObserver
{
  public:
    void
    onStep(const ExecInfo &info, const ArchState &post) override
    {
        StepRecord r;
        r.pc = info.pc;
        r.nextPc = info.nextPc;
        r.inst = info.inst;
        if (post.fcc)
            r.flags |= StepRecord::fccSet;
        if (info.isMmio)
            r.flags |= StepRecord::isMmio;
        if (info.isMem) {
            r.effAddr = info.effAddr;
            if (!info.isLoad) {
                r.flags |= StepRecord::isStore;
                // Stores do not modify registers, so the data operand
                // is still live in the post state.
                r.value = info.inst.op == Opcode::SDC1
                              ? fpBits(post.fpRegs[info.inst.rt])
                              : post.readInt(info.inst.rt);
            }
        }
        if (int d = info.inst.destIntReg(); d >= 0) {
            r.flags |= StepRecord::hasIntDest;
            r.value = post.readInt(d);
        } else if (int f = info.inst.destFpReg(); f >= 0) {
            r.flags |= StepRecord::hasFpDest;
            r.value = fpBits(post.fpRegs[f]);
        }
        buf.push_back(r);
    }

    std::vector<StepRecord> buf;
};

/**
 * MMIO cycle-counter loads are timing-dependent between the machines
 * by design; everything else must match bit for bit.
 */
bool
recordsMatch(const StepRecord &a, const StepRecord &b)
{
    if (a.pc != b.pc || a.nextPc != b.nextPc || !(a.inst == b.inst) ||
        a.flags != b.flags || a.effAddr != b.effAddr)
        return false;
    const bool mmioLoad = (a.flags & StepRecord::isMmio) &&
                          !(a.flags & StepRecord::isStore);
    return mmioLoad || a.value == b.value;
}

/**
 * One machine plus its recorder and private event tracer. The tracer
 * only feeds the report's trace tail, so its ring holds just that many
 * events.
 */
struct Side
{
    Side(const Program &prog, const char *label, int traceTail)
        : name(label), rig(prog),
          tracer(static_cast<std::size_t>(std::max(traceTail, 0)))
    {
    }

    template <typename CpuT>
    CpuT &
    makeCpu(std::optional<bool> blockCache)
    {
        CpuT &c = rig.build<CpuT>(blockCache);
        c.execCore().setObserver(&rec);
        return c;
    }

    /** Run until @p chunk records are buffered, halt, or @p cap. */
    void
    fill(std::uint64_t cap)
    {
        while (!halted && rec.buf.size() < chunkRecords &&
               consumed + rec.buf.size() <= cap) {
            ScopedTracer st(tracer);
            if (rig.cpu().run(sliceCycles).reason == StopReason::Halted)
                halted = true;
        }
    }

    /** Discard @p n compared records, keeping a context window. */
    void
    consume(std::size_t n, std::size_t keep)
    {
        for (std::size_t i = n >= keep ? n - keep : 0; i < n; ++i)
            history.push_back(rec.buf[i]);
        while (history.size() > keep)
            history.pop_front();
        rec.buf.erase(rec.buf.begin(),
                      rec.buf.begin() + static_cast<std::ptrdiff_t>(n));
        consumed += n;
    }

    const char *name;
    Rig rig;
    Recorder rec;
    Tracer tracer;
    std::deque<StepRecord> history;
    std::uint64_t consumed = 0;
    bool halted = false;
};

void
describeRecord(std::string &out, std::uint64_t index, const StepRecord &r)
{
    out += strprintf("  #%-8" PRIu64 " 0x%08X  %-28s", index, r.pc,
                     disassemble(r.inst, r.pc).c_str());
    if (r.flags & StepRecord::isStore)
        out += strprintf(" [0x%08X] <- 0x%016" PRIX64, r.effAddr, r.value);
    else if (r.flags & StepRecord::hasFpDest)
        out += strprintf(" f%d <- 0x%016" PRIX64, r.inst.rd, r.value);
    else if (r.flags & StepRecord::hasIntDest)
        out += strprintf(" -> 0x%08X", static_cast<Word>(r.value));
    if (r.flags & StepRecord::fccSet)
        out += " fcc=1";
    if (r.flags & StepRecord::isMmio)
        out += " (mmio)";
    out += '\n';
}

void
appendContext(std::string &out, const Side &s, std::size_t upTo)
{
    out += strprintf("%s stream (program order):\n", s.name);
    std::uint64_t base = s.consumed - s.history.size();
    std::uint64_t idx = base;
    for (const StepRecord &r : s.history)
        describeRecord(out, idx++, r);
    idx = s.consumed;
    for (std::size_t i = 0; i < upTo && i < s.rec.buf.size(); ++i)
        describeRecord(out, idx++, s.rec.buf[i]);
}

void
appendTraceTail(std::string &out, const Side &s, int tail)
{
    out += strprintf("%s trace tail:\n", s.name);
    const std::size_t n = s.tracer.size();
    const std::size_t keep = static_cast<std::size_t>(std::max(tail, 0));
    for (std::size_t i = n > keep ? n - keep : 0; i < n; ++i) {
        const TraceEvent &e = s.tracer.at(i);
        const EventKindInfo &info = eventKindInfo(e.kind);
        out += strprintf("  [%10" PRIu64 "] %s.%s a=0x%" PRIX64 " b=%" PRIu64
                         " c=%" PRIu64 "\n", e.cycle, info.category, info.name,
                         e.a, e.b, e.c);
    }
}

std::string
divergenceReport(const Side &ref, const Side &cand, std::size_t at,
                 const LockstepOptions &opts, const char *what)
{
    std::string out;
    out += strprintf("lockstep divergence: %s\n", what);
    out += strprintf("  first differing instruction: #%" PRIu64 "\n",
                     ref.consumed + at);
    const std::size_t upTo =
        at + static_cast<std::size_t>(opts.reportWindow);
    appendContext(out, ref, upTo);
    appendContext(out, cand, upTo);
    appendTraceTail(out, cand, opts.traceTail);
    appendTraceTail(out, ref, opts.traceTail);
    return out;
}

/** Diff final architectural + memory + platform state of both rigs. */
bool
compareFinalState(Side &ref, Side &cand, const LockstepOptions &opts,
                  std::string &report)
{
    const ArchState &a = ref.rig.cpu().arch();
    const ArchState &b = cand.rig.cpu().arch();
    if (a.pc != b.pc)
        report += strprintf("final pc: %s=0x%08X %s=0x%08X\n", ref.name, a.pc,
                            cand.name, b.pc);
    for (int r = 0; r < numIntRegs; ++r)
        if (a.readInt(r) != b.readInt(r))
            report += strprintf("final r%d: %s=0x%08X %s=0x%08X\n", r,
                                ref.name, a.readInt(r), cand.name,
                                b.readInt(r));
    for (int f = 0; f < numFpRegs; ++f)
        if (fpBits(a.fpRegs[f]) != fpBits(b.fpRegs[f]))
            report += strprintf("final f%d: %s=0x%016" PRIX64 " %s=0x%016"
                                PRIX64 "\n", f, ref.name, fpBits(a.fpRegs[f]),
                                cand.name, fpBits(b.fpRegs[f]));
    if (a.fcc != b.fcc)
        report += strprintf("final fcc: %s=%d %s=%d\n", ref.name, a.fcc,
                            cand.name, b.fcc);

    if (opts.compareMemory) {
        static const std::uint8_t zeros[4096] = {};
        MainMemory &ma = ref.rig.mem();
        MainMemory &mb = cand.rig.mem();
        std::vector<Addr> bases = ma.pageBases();
        for (Addr base : mb.pageBases())
            if (!ma.peekPage(base))
                bases.push_back(base);
        for (Addr base : bases) {
            const std::uint8_t *pa = ma.peekPage(base);
            const std::uint8_t *pb = mb.peekPage(base);
            if (!pa)
                pa = zeros;
            if (!pb)
                pb = zeros;
            const std::size_t n =
                static_cast<std::size_t>(MainMemory::pageBytes());
            if (std::memcmp(pa, pb, n) == 0)
                continue;
            for (std::size_t i = 0; i < n; ++i)
                if (pa[i] != pb[i]) {
                    report += strprintf(
                        "memory [0x%08X]: %s=0x%02X %s=0x%02X\n",
                        base + static_cast<Addr>(i), ref.name, pa[i],
                        cand.name, pb[i]);
                    break;    // one sample byte per differing page
                }
        }
    }

    const Platform &platA = ref.rig.platform();
    const Platform &platB = cand.rig.platform();
    if (platA.lastChecksum() != platB.lastChecksum() ||
        platA.checksumReported() != platB.checksumReported())
        report += strprintf("checksum: %s=0x%08X(%d) %s=0x%08X(%d)\n",
                            ref.name, platA.lastChecksum(),
                            platA.checksumReported(), cand.name,
                            platB.lastChecksum(), platB.checksumReported());
    if (platA.consoleOutput() != platB.consoleOutput())
        report += strprintf("console output differs (%zu vs %zu bytes)\n",
                            platA.consoleOutput().size(),
                            platB.consoleOutput().size());
    return report.empty();
}

} // namespace

LockstepResult
runLockstep(const Program &prog, const LockstepOptions &opts)
{
    LockstepResult res;

    Side ref(prog, "reference(simple)", opts.traceTail);
    ref.makeCpu<SimpleCpu>(opts.refBlockCache);
    Side cand(prog, "candidate(complex)", opts.traceTail);
    OooCpu &candCpu = cand.makeCpu<OooCpu>(opts.candBlockCache);
    if (opts.prepareComplex)
        opts.prepareComplex(candCpu);

    const std::size_t keep = static_cast<std::size_t>(opts.reportWindow);
    // Guards against a livelocked pipeline that burns cycles without
    // retiring anything (a real bug class the cap alone cannot catch:
    // no records accumulate, so the instruction cap never trips).
    int stalledIterations = 0;

    for (;;) {
        ref.fill(opts.maxInstructions);
        cand.fill(opts.maxInstructions);

        const std::size_t n =
            std::min(ref.rec.buf.size(), cand.rec.buf.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (!recordsMatch(ref.rec.buf[i], cand.rec.buf[i])) {
                res.diverged = true;
                res.instructions = ref.consumed + i;
                // Slide the context window up to the mismatch so the
                // report shows `reportWindow` records on each side of
                // it, not the whole buffered chunk.
                ref.consume(i, keep);
                cand.consume(i, keep);
                res.report = divergenceReport(ref, cand, 0, opts,
                                              "architectural streams differ");
                return res;
            }
        }
        ref.consume(n, keep);
        cand.consume(n, keep);
        res.instructions = ref.consumed;
        stalledIterations = n == 0 ? stalledIterations + 1 : 0;
        if (stalledIterations > 4096) {
            res.timedOut = true;
            res.report += strprintf(
                "lockstep stall: no forward progress after %" PRIu64
                " instructions (ref %s, cand %s)\n", res.instructions,
                ref.halted ? "halted" : "running",
                cand.halted ? "halted" : "running");
            return res;
        }

        const bool refDrained = ref.halted && ref.rec.buf.empty();
        const bool candDrained = cand.halted && cand.rec.buf.empty();
        if (refDrained && candDrained)
            break;
        // One side halted with a fully compared stream while the other
        // still has (or will produce) more instructions: stream-length
        // divergence.
        if (refDrained && !cand.rec.buf.empty()) {
            res.diverged = true;
            res.report = divergenceReport(
                ref, cand, 0, opts,
                "candidate executed past the reference halt");
            return res;
        }
        if (candDrained && !ref.rec.buf.empty()) {
            res.diverged = true;
            res.report = divergenceReport(
                ref, cand, 0, opts,
                "reference executed past the candidate halt");
            return res;
        }
        if ((!ref.halted &&
             ref.consumed + ref.rec.buf.size() > opts.maxInstructions) ||
            (!cand.halted &&
             cand.consumed + cand.rec.buf.size() > opts.maxInstructions)) {
            res.timedOut = true;
            res.report += strprintf("lockstep timeout after %" PRIu64
                                    " instructions\n", res.instructions);
            return res;
        }
    }

    std::string finalDiff;
    if (!compareFinalState(ref, cand, opts, finalDiff)) {
        res.diverged = true;
        res.report = "lockstep divergence: final state differs\n" + finalDiff;
        appendTraceTail(res.report, cand, opts.traceTail);
        return res;
    }

    res.equivalent = true;
    return res;
}

} // namespace visa::verify
