#include "cpu/cpu.hh"

#include <algorithm>

#include "isa/encoding.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace visa
{

void
ExecCore::reset()
{
    state_ = ArchState{};
    state_.pc = prog_.entry;
    state_.writeInt(reg::sp, defaultStackTop);
    leaveBlock();
}

void
ExecCore::refill()
{
    // Block-entry store-to-code probe: one counter compare per block,
    // the cached path's analogue of the uncached path's per-step probe.
    if (mem_.codeWriteCount() != codeWriteSnap_) [[unlikely]]
        resyncCode();
    const Addr pc = state_.pc;
    CodeBlock *parent = curBlock_;
    CodeBlock *b = nullptr;
    if (parent) {
        // Chains are hints; confirm the target (indirect jumps can land
        // anywhere) and validity before trusting one.
        CodeBlock *t = parent->chainTaken;
        if (t && t->valid && t->startPc == pc) {
            b = t;
        } else {
            CodeBlock *f = parent->chainFall;
            if (f && f->valid && f->startPc == pc)
                b = f;
        }
        if (b)
            ++chainHits_;
    }
    if (!b) {
        b = blocks_.ensure(text_, textCopy_.size(), textBase_, pc);
        if (!b) [[unlikely]] {
            // Off-text or misaligned PC: Program::at carries the
            // existing panic diagnostics for exactly this case.
            prog_.at(pc);
            panic("ExecCore::refill: no block at pc 0x%x", pc);
        }
        if (parent) {
            if (pc == parent->fallPc())
                parent->chainFall = b;
            else
                parent->chainTaken = b;
        }
    }
    curBlock_ = b;
    cur_ = b->insts.data();
    curEnd_ = cur_ + b->count;
    cachePc_ = pc;
}

Instruction
ExecCore::decodeOrInvalid(Word w, Addr pc)
{
    try {
        return decode(w, pc);
    } catch (const FatalError &) {
        // A store wrote an undecodable word. Executing it must panic,
        // but merely resyncing past it must not: map it to the
        // out-of-range opcode, which traps in classOf / the cached
        // dispatch only if the program actually reaches it.
        Instruction in;
        in.op = Opcode::NumOpcodes;
        return in;
    }
}

void
ExecCore::resyncCode()
{
    ++codeResyncs_;
    codeWriteSnap_ = mem_.codeWriteCount();
    const Addr page = MainMemory::pageBytes();
    const std::size_t nwords =
        std::min(textCopy_.size(), wordsCopy_.size());
    std::size_t lo = SIZE_MAX;
    std::size_t hi = 0;
    for (std::size_t k = 0; k < pageGenSnap_.size(); ++k) {
        const Addr page_base =
            (textBase_ / page + static_cast<Addr>(k)) * page;
        const std::uint64_t gen = mem_.codePageGen(page_base);
        if (gen == pageGenSnap_[k])
            continue;
        pageGenSnap_[k] = gen;
        // Word-diff the dirtied page: re-decoding only words whose
        // memory content actually changed keeps the resync idempotent
        // and independent of encode() round-trip fidelity.
        const Addr first = std::max(page_base, textBase_);
        const Addr last =
            std::min(page_base + page, textBase_ + textBytes_);
        for (Addr a = first; a < last; a += 4) {
            const std::size_t w = (a - textBase_) >> 2;
            if (w >= nwords)
                break;
            const Word v = mem_.readWord(a);
            if (v == wordsCopy_[w])
                continue;
            wordsCopy_[w] = v;
            textCopy_[w] = decodeOrInvalid(v, a);
            lo = std::min(lo, w);
            hi = std::max(hi, w);
        }
    }
    if (lo <= hi)
        blocks_.invalidateWords(lo, hi);
}

void
ExecCore::badMmioAccess(Addr pc)
{
    fatal("MMIO access must use lw/sw (pc 0x%x)", pc);
}

void
ExecCore::performMmio(const ExecInfo &info)
{
    if (!info.isMmio)
        return;
    if (info.isLoad) {
        state_.writeInt(info.mmioDest, platform_.load(info.effAddr));
    } else {
        platform_.store(info.effAddr, state_.readInt(info.inst.rt));
    }
}

Cpu::Cpu(const Program &prog, MainMemory &mem, Platform &platform,
         MemController &memctrl,
         const CacheParams &icache_params, const CacheParams &dcache_params)
    : prog_(prog), mem_(mem), platform_(platform), memctrl_(memctrl),
      icache_(icache_params), dcache_(dcache_params),
      core_(prog, mem, platform)
{
}

void
Cpu::resetForTask()
{
    // Bank the finished instance's cycles so the activity counters
    // stay monotonic across tasks (the subclass resets its per-task
    // cycle counter after this call).
    activityCycleBase_ += cycles();
    core_.reset();
    retired_ = 0;
    halted_ = false;
    // No sync here: the subclass zeroes its per-task cycle counter
    // after this call, and the banked base already equals the
    // cumulative count. activity_.cycles refreshes on the first step.
}

void
Cpu::flushCachesAndPredictors()
{
    icache_.flush();
    dcache_.flush();
}

void
Cpu::dumpStats(std::ostream &os) const
{
    StatSet set;
    buildStats(set);
    set.dump(os);
}

void
Cpu::dumpStatsJson(std::ostream &os) const
{
    StatSet set;
    buildStats(set);
    set.dumpJson(os);
}

void
Cpu::buildStats(StatSet &set) const
{
    StatGroup &g = set.group(statsName());
    g.scalar("cycles", "simulated cycles this task").set(cycles());
    g.scalar("instructions", "instructions retired").set(retired_);
    g.formula("ipc",
              [this]() {
                  Cycles c = cycles();
                  return c ? static_cast<double>(retired_) /
                                 static_cast<double>(c)
                           : 0.0;
              },
              "retired instructions per cycle");
    g.scalar("icache_accesses").set(icache_.accesses());
    g.scalar("icache_misses").set(icache_.misses());
    g.scalar("dcache_accesses").set(dcache_.accesses());
    g.scalar("dcache_misses").set(dcache_.misses());
    g.formula("dcache_miss_rate", [this]() {
        return dcache_.accesses()
                   ? static_cast<double>(dcache_.misses()) /
                         static_cast<double>(dcache_.accesses())
                   : 0.0;
    });
    for (int u = 0; u < numUnits; ++u) {
        g.scalar(std::string("activity_") +
                 unitName(static_cast<Unit>(u)))
            .set(activity_.count(static_cast<Unit>(u)));
    }

    const BlockCacheStats bc = core_.blockCacheStats();
    StatGroup &b =
        set.group(std::string(statsName()) + "_block_cache");
    b.scalar("enabled", "1 when the translation cache is active")
        .set(bc.enabled ? 1 : 0);
    b.scalar("blocks_decoded", "basic blocks decoded (incl. re-decodes)")
        .set(bc.blocksDecoded);
    b.scalar("block_hits", "block entries served without decoding")
        .set(bc.blockHits);
    b.scalar("invalidations", "blocks invalidated by stores to code")
        .set(bc.invalidations);
    b.scalar("insts_decoded", "instruction records produced by decodes")
        .set(bc.instsDecoded);
    b.scalar("code_resyncs", "store-to-code resynchronization passes")
        .set(bc.codeResyncs);
    b.formula("avg_block_len",
              [this]() {
                  const BlockCacheStats s = core_.blockCacheStats();
                  return s.blocksDecoded
                             ? static_cast<double>(s.instsDecoded) /
                                   static_cast<double>(s.blocksDecoded)
                             : 0.0;
              },
              "average decoded block length, instructions");
}

} // namespace visa
