/**
 * @file
 * Common CPU machinery: architectural state, the shared functional
 * execution core, and the abstract processor interface implemented by
 * the simple-fixed pipeline and the complex pipeline.
 */

#ifndef VISA_CPU_CPU_HH
#define VISA_CPU_CPU_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "cpu/activity.hh"
#include "isa/predecode.hh"
#include "isa/program.hh"
#include "isa/semantics.hh"
#include "mem/cache.hh"
#include "mem/memctrl.hh"
#include "mem/memory.hh"
#include "mem/platform.hh"
#include "sim/types.hh"

namespace visa
{

/** Architected register state. */
struct ArchState
{
    std::array<Word, numIntRegs> intRegs{};
    std::array<double, numFpRegs> fpRegs{};
    bool fcc = false;
    Addr pc = 0;

    Word
    readInt(int r) const
    {
        return r == 0 ? 0 : intRegs[static_cast<std::size_t>(r)];
    }
    void
    writeInt(int r, Word v)
    {
        if (r != 0)
            intRegs[static_cast<std::size_t>(r)] = v;
    }
};

/**
 * Observer of the architectural (program-order) execution stream.
 *
 * Both pipelines funnel every instruction through ExecCore::step in
 * program order — the in-order pipeline at commit, the complex
 * pipeline at dispatch — so an observer sees the exact retire-order
 * architectural history of either machine. The differential
 * verification harness (src/verify) records this stream on two rigs
 * and diffs them instruction by instruction.
 */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;
    /** One instruction executed; @p post is the state *after* it. */
    virtual void onStep(const struct ExecInfo &info,
                        const struct ArchState &post) = 0;
};

/** Everything a pipeline needs to know about one executed instruction. */
struct ExecInfo
{
    Instruction inst;
    Addr pc = 0;
    Addr nextPc = 0;
    bool halted = false;

    bool isMem = false;
    bool isMmio = false;
    bool isLoad = false;
    Addr effAddr = 0;

    bool taken = false;         ///< control outcome (jumps always taken)

    /** For deferred MMIO loads: destination register to write later. */
    int mmioDest = -1;
};

/** Live counters of one ExecCore's basic-block translation cache. */
struct BlockCacheStats
{
    bool enabled = false;
    std::uint64_t blocksDecoded = 0;    ///< decode + re-decode events
    std::uint64_t blockHits = 0;        ///< entries served without decoding
    std::uint64_t invalidations = 0;    ///< blocks killed by code writes
    std::uint64_t instsDecoded = 0;     ///< records produced by decodes
    std::uint64_t codeResyncs = 0;      ///< store-to-code resync passes
};

/**
 * Functional (untimed) executor shared by both pipelines. The complex
 * pipeline executes instructions functionally at dispatch (the
 * SimpleScalar sim-outorder approach); the simple pipeline at commit.
 *
 * Execution runs through a basic-block translation cache by default:
 * on first entry to a PC the straight-line run up to the next control
 * transfer is decoded into pre-resolved records (isa/predecode.hh) and
 * subsequent steps dispatch straight off the record stream — one dense
 * opcode switch per instruction with no fetch bounds check, class
 * table load, or nested semantic dispatch. Stores into the text range
 * invalidate precisely: MainMemory keeps per-code-page generation
 * counters which are checked on every block entry, and a store from
 * the running program itself additionally ends the current block so
 * the modification is visible to the very next instruction — the same
 * instruction-granular semantics the uncached path implements with its
 * per-step generation probe. setBlockCacheEnabled(false) (or the
 * tools' --no-block-cache flag, which flips the process default)
 * selects the uncached path for differential runs.
 */
class ExecCore
{
  public:
    ExecCore(const Program &prog, MainMemory &mem, Platform &platform)
        : prog_(prog), mem_(mem), platform_(platform),
          textCopy_(prog.text), wordsCopy_(prog.words),
          text_(textCopy_.data()),
          textBase_(prog.textBase),
          textBytes_(static_cast<Addr>(prog.text.size() * 4)),
          cacheOn_(defaultBlockCacheOn_),
          codeWriteSnap_(mem.codeWriteCount())
    {
        blocks_.reset(textCopy_.size());
        const Addr page = MainMemory::pageBytes();
        if (textBytes_) {
            const Addr first = textBase_ / page;
            const Addr last = (textBase_ + textBytes_ - 1) / page;
            pageGenSnap_.resize(last - first + 1);
            for (Addr k = 0; k <= last - first; ++k)
                pageGenSnap_[k] = mem.codePageGen((first + k) * page);
        }
    }

    /** Reset registers and set the PC to the program entry. */
    void reset();

    /**
     * Execute the instruction at the current PC and advance it.
     * Defined inline below: this is the single hottest function of both
     * pipeline simulators, and out-of-line it could never fold into
     * their per-instruction loops.
     *
     * @param defer_mmio when true, loads/stores to the MMIO window are
     *        *not* performed; the caller must invoke performMmio() once
     *        simulated time has advanced to the instruction's memory
     *        stage (keeps cycle-counter reads exact on the in-order
     *        pipeline).
     */
    __attribute__((always_inline)) ExecInfo step(bool defer_mmio);

    /** Report a non-word MMIO access at @p pc (panics). */
    [[noreturn]] static void badMmioAccess(Addr pc);

    /** Perform the deferred MMIO access of @p info. */
    void performMmio(const ExecInfo &info);

    /**
     * Install @p obs to watch every executed instruction (nullptr
     * detaches). Costs one predictable branch per step() when absent;
     * only the verification harness installs one.
     */
    void setObserver(ExecObserver *obs) { obs_ = obs; }
    ExecObserver *observer() const { return obs_; }

    ArchState &state() { return state_; }
    const ArchState &state() const { return state_; }
    const Program &program() const { return prog_; }

    /**
     * Enable or disable the basic-block translation cache for this
     * core. Both paths are architecturally identical for program-driven
     * execution (including store-to-code); disabling exists for
     * differential cache-on/off runs and as an escape hatch.
     */
    void
    setBlockCacheEnabled(bool on)
    {
        cacheOn_ = on;
        leaveBlock();
    }
    bool blockCacheEnabled() const { return cacheOn_; }

    /**
     * Process-wide default for newly constructed cores (the
     * --no-block-cache tool flag). Set before any rigs are built;
     * existing cores are unaffected.
     */
    static void setBlockCacheDefault(bool on) { defaultBlockCacheOn_ = on; }
    static bool blockCacheDefault() { return defaultBlockCacheOn_; }

    /** Live translation-cache counters (see BlockCacheStats). */
    BlockCacheStats
    blockCacheStats() const
    {
        BlockCacheStats s;
        s.enabled = cacheOn_;
        s.blocksDecoded = blocks_.blocksDecoded();
        s.blockHits = blocks_.blockHits() + chainHits_;
        s.invalidations = blocks_.invalidations();
        s.instsDecoded = blocks_.instsDecoded();
        s.codeResyncs = codeResyncs_;
        return s;
    }

    /**
     * The decoded block map (read-only). The WCET analyzer's CFG
     * construction shares the same straight-line scanner
     * (straightLineLength in isa/predecode.hh), so the blocks here
     * carve the text identically to the analysis blocks.
     */
    const BlockMap &blockMap() const { return blocks_; }

  private:
    /**
     * Branch-free instruction fetch: the common case is one bounds
     * check plus an indexed load off the cached text base. Off-text or
     * misaligned PCs take the cold path through Program::at, which
     * preserves the existing panic diagnostics.
     */
    const Instruction &
    fetch(Addr pc) const
    {
        const Addr off = pc - textBase_;    // wraps huge when pc < base
        if (off < textBytes_ && (off & 3u) == 0) [[likely]]
            return text_[off >> 2];
        return prog_.at(pc);
    }

    /** Drop the current block context (forces a refill). */
    void
    leaveBlock()
    {
        cur_ = nullptr;
        curEnd_ = nullptr;
        curBlock_ = nullptr;
    }

    /** True when a @p bytes-wide store at @p ea overlaps the text. */
    bool
    touchesText(Addr ea, Addr bytes) const
    {
        return ea + bytes > textBase_ && ea - textBase_ < textBytes_;
    }

    /** Uncached step: fetch/decode-dispatch every instruction. */
    ExecInfo stepUncached(bool defer_mmio);
    /**
     * Execute the next record of the current block. Force-inlined into
     * step() (and step() into its callers): the dispatch switch must
     * merge into the caller's loop so the ExecInfo never round-trips
     * through a hidden sret buffer — at -O2 the inliner judges the
     * switch too big and leaves ~40% of the step cost in call glue.
     */
    __attribute__((always_inline)) ExecInfo stepCached(bool defer_mmio);
    /** Enter the block at the current PC (chain, map, or decode). */
    void refill();
    /**
     * Re-read changed code words from memory, re-decode them, and
     * invalidate overlapped blocks (store-to-code support).
     */
    void resyncCode();
    /** decode() @p w, mapping undecodable words to a trapping record. */
    static Instruction decodeOrInvalid(Word w, Addr pc);

    const Program &prog_;
    MainMemory &mem_;
    Platform &platform_;
    /**
     * Mutable copies of the program image: execution (cached and
     * uncached) reads these, and resyncCode() re-decodes words that
     * stores into the text range changed, making self-modifying code
     * behave identically on both paths.
     */
    std::vector<Instruction> textCopy_;
    std::vector<Word> wordsCopy_;
    /** Cached view of textCopy_ for the fetch fast path. */
    const Instruction *text_;
    Addr textBase_;
    Addr textBytes_;
    ArchState state_;
    ExecObserver *obs_ = nullptr;

    /** The translation cache and the execution cursor into it. */
    BlockMap blocks_;
    const PredecodedInst *cur_ = nullptr;
    const PredecodedInst *curEnd_ = nullptr;
    CodeBlock *curBlock_ = nullptr;
    /** PC of the record at cur_; mismatch forces a refill. */
    Addr cachePc_ = 0;
    bool cacheOn_;
    /** Snapshot of MainMemory::codeWriteCount at the last resync. */
    std::uint64_t codeWriteSnap_;
    /** Per-text-page generation snapshots, parallel to the mem's. */
    std::vector<std::uint64_t> pageGenSnap_;
    std::uint64_t chainHits_ = 0;
    std::uint64_t codeResyncs_ = 0;

    static inline bool defaultBlockCacheOn_ = true;
};

inline ExecInfo
ExecCore::step(bool defer_mmio)
{
    if (!cacheOn_) [[unlikely]]
        return stepUncached(defer_mmio);
    if (cur_ == curEnd_ || state_.pc != cachePc_) [[unlikely]]
        refill();
    return stepCached(defer_mmio);
}

inline ExecInfo
ExecCore::stepUncached(bool defer_mmio)
{
    // The uncached path picks up store-to-code before the *next*
    // instruction via this per-step generation probe; the cached path
    // reaches the same point by ending the current block on a store
    // into text and re-checking on block entry.
    if (mem_.codeWriteCount() != codeWriteSnap_) [[unlikely]]
        resyncCode();
    ExecInfo info;
    info.pc = state_.pc;
    const Instruction &inst = fetch(state_.pc);
    info.inst = inst;
    info.nextPc = state_.pc + 4;

    switch (inst.cls()) {
      case InstrClass::IntAlu:
      case InstrClass::IntMult:
      case InstrClass::IntDiv:
        state_.writeInt(inst.rd,
                        evalIntAlu(inst, state_.readInt(inst.rs),
                                   state_.readInt(inst.rt)));
        break;

      case InstrClass::FpAlu:
      case InstrClass::FpMult:
      case InstrClass::FpDiv:
        switch (inst.op) {
          case Opcode::CVT_D_W:
            state_.fpRegs[inst.rd] = static_cast<double>(
                static_cast<std::int32_t>(state_.readInt(inst.rs)));
            break;
          case Opcode::CVT_W_D:
            state_.writeInt(inst.rd,
                            static_cast<Word>(static_cast<std::int32_t>(
                                state_.fpRegs[inst.rs])));
            break;
          case Opcode::C_EQ_D: case Opcode::C_LT_D: case Opcode::C_LE_D:
            state_.fcc = evalFpCmp(inst, state_.fpRegs[inst.rs],
                                   state_.fpRegs[inst.rt]);
            break;
          default:
            state_.fpRegs[inst.rd] = evalFpAlu(inst, state_.fpRegs[inst.rs],
                                               state_.fpRegs[inst.rt]);
        }
        break;

      case InstrClass::Load: {
        info.isMem = true;
        info.isLoad = true;
        info.effAddr = effectiveAddr(inst, state_.readInt(inst.rs));
        info.isMmio = mmio::contains(info.effAddr);
        if (info.isMmio) [[unlikely]] {
            if (inst.op != Opcode::LW)
                badMmioAccess(info.pc);
            if (defer_mmio)
                info.mmioDest = inst.rd;
            else
                state_.writeInt(inst.rd, platform_.load(info.effAddr));
        } else if (inst.op == Opcode::LDC1) {
            state_.fpRegs[inst.rd] = mem_.readDouble(info.effAddr);
        } else {
            Word raw = static_cast<Word>(
                mem_.read(info.effAddr, inst.memBytes()));
            state_.writeInt(inst.rd, extendLoad(inst.op, raw));
        }
        break;
      }

      case InstrClass::Store: {
        info.isMem = true;
        info.effAddr = effectiveAddr(inst, state_.readInt(inst.rs));
        info.isMmio = mmio::contains(info.effAddr);
        if (info.isMmio) [[unlikely]] {
            if (inst.op != Opcode::SW)
                badMmioAccess(info.pc);
            if (!defer_mmio)
                platform_.store(info.effAddr, state_.readInt(inst.rt));
            // deferred stores are performed by performMmio()
        } else if (inst.op == Opcode::SDC1) {
            mem_.writeDouble(info.effAddr, state_.fpRegs[inst.rt]);
        } else {
            mem_.write(info.effAddr, state_.readInt(inst.rt),
                       inst.memBytes());
        }
        break;
      }

      case InstrClass::CondBranch:
      case InstrClass::DirectJump:
      case InstrClass::IndirectJump: {
        ControlEval ev = evalControl(inst, info.pc, state_.readInt(inst.rs),
                                     state_.readInt(inst.rt), state_.fcc);
        info.taken = ev.taken;
        info.nextPc = ev.taken ? ev.target : info.pc + 4;
        if (inst.op == Opcode::JAL)
            state_.writeInt(reg::ra, info.pc + 4);
        else if (inst.op == Opcode::JALR)
            state_.writeInt(inst.rd, info.pc + 4);
        break;
      }

      case InstrClass::Nop:
        break;

      case InstrClass::Halt:
        info.halted = true;
        info.nextPc = info.pc;
        break;
    }

    state_.pc = info.nextPc;
    if (obs_) [[unlikely]]
        obs_->onStep(info, state_);
    return info;
}

/**
 * The translation-cache fast path: one pre-resolved record per
 * instruction, dispatched through a single dense opcode switch whose
 * cases fuse the class dispatch, semantic evaluation, load extension,
 * and effective-address calculation the uncached path performs via
 * nested switches and table loads. Must remain architecturally
 * identical to stepUncached for every opcode — the differential fuzz
 * tiers run both paths against each other.
 */
inline ExecInfo
ExecCore::stepCached(bool defer_mmio)
{
    const PredecodedInst &pi = *cur_++;
    const Instruction &inst = pi.inst;
    const Addr pc = cachePc_;
    ExecInfo info;
    info.pc = pc;
    info.inst = inst;
    Addr next = pc + 4;

    switch (inst.op) {
      case Opcode::ADD:
        state_.writeInt(inst.rd, state_.readInt(inst.rs) +
                                     state_.readInt(inst.rt));
        break;
      case Opcode::SUB:
        state_.writeInt(inst.rd, state_.readInt(inst.rs) -
                                     state_.readInt(inst.rt));
        break;
      case Opcode::MUL:
        state_.writeInt(
            inst.rd,
            static_cast<Word>(
                static_cast<std::int64_t>(
                    static_cast<std::int32_t>(state_.readInt(inst.rs))) *
                static_cast<std::int32_t>(state_.readInt(inst.rt))));
        break;
      case Opcode::DIV: {
        const auto s = static_cast<std::int32_t>(state_.readInt(inst.rs));
        const auto t = static_cast<std::int32_t>(state_.readInt(inst.rt));
        Word r = 0;
        if (t == 0)
            r = 0;
        else if (s == INT32_MIN && t == -1)
            r = static_cast<Word>(INT32_MIN);
        else
            r = static_cast<Word>(s / t);
        state_.writeInt(inst.rd, r);
        break;
      }
      case Opcode::REM: {
        const auto s = static_cast<std::int32_t>(state_.readInt(inst.rs));
        const auto t = static_cast<std::int32_t>(state_.readInt(inst.rt));
        const Word r = (t == 0 || (s == INT32_MIN && t == -1))
                           ? 0
                           : static_cast<Word>(s % t);
        state_.writeInt(inst.rd, r);
        break;
      }
      case Opcode::AND:
        state_.writeInt(inst.rd, state_.readInt(inst.rs) &
                                     state_.readInt(inst.rt));
        break;
      case Opcode::OR:
        state_.writeInt(inst.rd, state_.readInt(inst.rs) |
                                     state_.readInt(inst.rt));
        break;
      case Opcode::XOR:
        state_.writeInt(inst.rd, state_.readInt(inst.rs) ^
                                     state_.readInt(inst.rt));
        break;
      case Opcode::NOR:
        state_.writeInt(inst.rd, ~(state_.readInt(inst.rs) |
                                   state_.readInt(inst.rt)));
        break;
      case Opcode::SLT:
        state_.writeInt(
            inst.rd,
            static_cast<std::int32_t>(state_.readInt(inst.rs)) <
                    static_cast<std::int32_t>(state_.readInt(inst.rt))
                ? 1
                : 0);
        break;
      case Opcode::SLTU:
        state_.writeInt(inst.rd, state_.readInt(inst.rs) <
                                         state_.readInt(inst.rt)
                                     ? 1
                                     : 0);
        break;
      case Opcode::SLLV:
        state_.writeInt(inst.rd, state_.readInt(inst.rs)
                                     << (state_.readInt(inst.rt) & 31));
        break;
      case Opcode::SRLV:
        state_.writeInt(inst.rd, state_.readInt(inst.rs) >>
                                     (state_.readInt(inst.rt) & 31));
        break;
      case Opcode::SRAV:
        state_.writeInt(
            inst.rd,
            static_cast<Word>(
                static_cast<std::int32_t>(state_.readInt(inst.rs)) >>
                (state_.readInt(inst.rt) & 31)));
        break;
      case Opcode::SLL:
        state_.writeInt(inst.rd,
                        state_.readInt(inst.rs) << (inst.imm & 31));
        break;
      case Opcode::SRL:
        state_.writeInt(inst.rd,
                        state_.readInt(inst.rs) >> (inst.imm & 31));
        break;
      case Opcode::SRA:
        state_.writeInt(
            inst.rd,
            static_cast<Word>(
                static_cast<std::int32_t>(state_.readInt(inst.rs)) >>
                (inst.imm & 31)));
        break;
      case Opcode::ADDI:
        state_.writeInt(inst.rd, state_.readInt(inst.rs) +
                                     static_cast<Word>(inst.imm));
        break;
      case Opcode::ANDI:
        state_.writeInt(inst.rd,
                        state_.readInt(inst.rs) &
                            (static_cast<Word>(inst.imm) & 0xFFFF));
        break;
      case Opcode::ORI:
        state_.writeInt(inst.rd,
                        state_.readInt(inst.rs) |
                            (static_cast<Word>(inst.imm) & 0xFFFF));
        break;
      case Opcode::XORI:
        state_.writeInt(inst.rd,
                        state_.readInt(inst.rs) ^
                            (static_cast<Word>(inst.imm) & 0xFFFF));
        break;
      case Opcode::SLTI:
        state_.writeInt(
            inst.rd,
            static_cast<std::int32_t>(state_.readInt(inst.rs)) < inst.imm
                ? 1
                : 0);
        break;
      case Opcode::SLTIU:
        state_.writeInt(inst.rd,
                        state_.readInt(inst.rs) <
                                static_cast<Word>(inst.imm)
                            ? 1
                            : 0);
        break;
      case Opcode::LUI:
        state_.writeInt(inst.rd, static_cast<Word>(inst.imm) << 16);
        break;

      case Opcode::LB: case Opcode::LBU:
      case Opcode::LH: case Opcode::LHU: {
        info.isMem = true;
        info.isLoad = true;
        const Addr ea = state_.readInt(inst.rs) +
                        static_cast<Word>(inst.imm);
        info.effAddr = ea;
        if (mmio::contains(ea)) [[unlikely]]
            badMmioAccess(pc);
        const Word raw =
            static_cast<Word>(mem_.read(ea, pi.memBytes));
        Word v;
        switch (inst.op) {
          case Opcode::LB:
            v = static_cast<Word>(static_cast<std::int32_t>(
                static_cast<std::int8_t>(raw & 0xFF)));
            break;
          case Opcode::LBU:
            v = raw & 0xFF;
            break;
          case Opcode::LH:
            v = static_cast<Word>(static_cast<std::int32_t>(
                static_cast<std::int16_t>(raw & 0xFFFF)));
            break;
          default:
            v = raw & 0xFFFF;
        }
        state_.writeInt(inst.rd, v);
        break;
      }
      case Opcode::LW: {
        info.isMem = true;
        info.isLoad = true;
        const Addr ea = state_.readInt(inst.rs) +
                        static_cast<Word>(inst.imm);
        info.effAddr = ea;
        if (mmio::contains(ea)) [[unlikely]] {
            info.isMmio = true;
            if (defer_mmio)
                info.mmioDest = inst.rd;
            else
                state_.writeInt(inst.rd, platform_.load(ea));
        } else {
            state_.writeInt(inst.rd,
                            static_cast<Word>(mem_.read(ea, 4)));
        }
        break;
      }
      case Opcode::LDC1: {
        info.isMem = true;
        info.isLoad = true;
        const Addr ea = state_.readInt(inst.rs) +
                        static_cast<Word>(inst.imm);
        info.effAddr = ea;
        if (mmio::contains(ea)) [[unlikely]]
            badMmioAccess(pc);
        state_.fpRegs[inst.rd] = mem_.readDouble(ea);
        break;
      }

      case Opcode::SB: case Opcode::SH: {
        info.isMem = true;
        const Addr ea = state_.readInt(inst.rs) +
                        static_cast<Word>(inst.imm);
        info.effAddr = ea;
        if (mmio::contains(ea)) [[unlikely]]
            badMmioAccess(pc);
        mem_.write(ea, state_.readInt(inst.rt), pi.memBytes);
        if (touchesText(ea, pi.memBytes)) [[unlikely]]
            cur_ = curEnd_;    // end the block: re-enter post-store
        break;
      }
      case Opcode::SW: {
        info.isMem = true;
        const Addr ea = state_.readInt(inst.rs) +
                        static_cast<Word>(inst.imm);
        info.effAddr = ea;
        if (mmio::contains(ea)) [[unlikely]] {
            info.isMmio = true;
            if (!defer_mmio)
                platform_.store(ea, state_.readInt(inst.rt));
            // deferred stores are performed by performMmio()
        } else {
            mem_.write(ea, state_.readInt(inst.rt), 4);
            if (touchesText(ea, 4)) [[unlikely]]
                cur_ = curEnd_;
        }
        break;
      }
      case Opcode::SDC1: {
        info.isMem = true;
        const Addr ea = state_.readInt(inst.rs) +
                        static_cast<Word>(inst.imm);
        info.effAddr = ea;
        if (mmio::contains(ea)) [[unlikely]]
            badMmioAccess(pc);
        mem_.writeDouble(ea, state_.fpRegs[inst.rt]);
        if (touchesText(ea, 8)) [[unlikely]]
            cur_ = curEnd_;
        break;
      }

      case Opcode::BEQ:
        info.taken = state_.readInt(inst.rs) == state_.readInt(inst.rt);
        next = info.taken ? static_cast<Addr>(inst.imm) : next;
        break;
      case Opcode::BNE:
        info.taken = state_.readInt(inst.rs) != state_.readInt(inst.rt);
        next = info.taken ? static_cast<Addr>(inst.imm) : next;
        break;
      case Opcode::BLEZ:
        info.taken =
            static_cast<std::int32_t>(state_.readInt(inst.rs)) <= 0;
        next = info.taken ? static_cast<Addr>(inst.imm) : next;
        break;
      case Opcode::BGTZ:
        info.taken =
            static_cast<std::int32_t>(state_.readInt(inst.rs)) > 0;
        next = info.taken ? static_cast<Addr>(inst.imm) : next;
        break;
      case Opcode::BLTZ:
        info.taken =
            static_cast<std::int32_t>(state_.readInt(inst.rs)) < 0;
        next = info.taken ? static_cast<Addr>(inst.imm) : next;
        break;
      case Opcode::BGEZ:
        info.taken =
            static_cast<std::int32_t>(state_.readInt(inst.rs)) >= 0;
        next = info.taken ? static_cast<Addr>(inst.imm) : next;
        break;
      case Opcode::BC1T:
        info.taken = state_.fcc;
        next = info.taken ? static_cast<Addr>(inst.imm) : next;
        break;
      case Opcode::BC1F:
        info.taken = !state_.fcc;
        next = info.taken ? static_cast<Addr>(inst.imm) : next;
        break;
      case Opcode::J:
        info.taken = true;
        next = static_cast<Addr>(inst.imm);
        break;
      case Opcode::JAL:
        info.taken = true;
        next = static_cast<Addr>(inst.imm);
        state_.writeInt(reg::ra, pc + 4);
        break;
      case Opcode::JR:
        info.taken = true;
        next = state_.readInt(inst.rs);
        break;
      case Opcode::JALR:
        info.taken = true;
        next = state_.readInt(inst.rs);    // read rs before a write to rd
        state_.writeInt(inst.rd, pc + 4);
        break;

      case Opcode::ADD_D:
        state_.fpRegs[inst.rd] =
            state_.fpRegs[inst.rs] + state_.fpRegs[inst.rt];
        break;
      case Opcode::SUB_D:
        state_.fpRegs[inst.rd] =
            state_.fpRegs[inst.rs] - state_.fpRegs[inst.rt];
        break;
      case Opcode::MUL_D:
        state_.fpRegs[inst.rd] =
            state_.fpRegs[inst.rs] * state_.fpRegs[inst.rt];
        break;
      case Opcode::DIV_D:
        state_.fpRegs[inst.rd] =
            state_.fpRegs[inst.rs] / state_.fpRegs[inst.rt];
        break;
      case Opcode::NEG_D:
        state_.fpRegs[inst.rd] = -state_.fpRegs[inst.rs];
        break;
      case Opcode::ABS_D:
        state_.fpRegs[inst.rd] = std::fabs(state_.fpRegs[inst.rs]);
        break;
      case Opcode::MOV_D:
        state_.fpRegs[inst.rd] = state_.fpRegs[inst.rs];
        break;
      case Opcode::CVT_D_W:
        state_.fpRegs[inst.rd] = static_cast<double>(
            static_cast<std::int32_t>(state_.readInt(inst.rs)));
        break;
      case Opcode::CVT_W_D:
        state_.writeInt(inst.rd,
                        static_cast<Word>(static_cast<std::int32_t>(
                            state_.fpRegs[inst.rs])));
        break;
      case Opcode::C_EQ_D:
        state_.fcc = state_.fpRegs[inst.rs] == state_.fpRegs[inst.rt];
        break;
      case Opcode::C_LT_D:
        state_.fcc = state_.fpRegs[inst.rs] < state_.fpRegs[inst.rt];
        break;
      case Opcode::C_LE_D:
        state_.fcc = state_.fpRegs[inst.rs] <= state_.fpRegs[inst.rt];
        break;

      case Opcode::NOP:
        break;
      case Opcode::HALT:
        info.halted = true;
        next = pc;
        break;
      default:
        detail::badOpcode("ExecCore::stepCached", inst.op);
    }

    info.nextPc = next;
    cachePc_ = next;
    state_.pc = next;
    if (obs_) [[unlikely]]
        obs_->onStep(info, state_);
    return info;
}

/** Why a run() call returned. */
enum class StopReason
{
    Halted,             ///< the task executed HALT
    WatchdogExpired,    ///< missed-checkpoint exception (unmasked)
    CycleBudget,        ///< the caller's cycle budget was exhausted
};

/** Result of a run() call. */
struct RunResult
{
    StopReason reason = StopReason::Halted;
};

/** Result of a drainForPreemption() call. */
struct DrainResult
{
    Cycles cycles = 0;          ///< simulated cycles the drain took
    /** An unmasked watchdog expiry fired during the drain; the caller
     *  must take the missed-checkpoint recovery path before the task
     *  is suspended. */
    bool watchdogExpired = false;
};

inline constexpr Cycles noCycleLimit = ~static_cast<Cycles>(0);

/**
 * Abstract processor: a program plus caches, memory timing, platform
 * devices, and power-activity accounting. Concrete subclasses:
 * SimpleCpu (the explicitly-safe simple-fixed processor) and OooCpu
 * (the complex processor with its simple mode).
 */
class Cpu
{
  public:
    Cpu(const Program &prog, MainMemory &mem, Platform &platform,
        MemController &memctrl,
        const CacheParams &icache_params, const CacheParams &dcache_params);
    virtual ~Cpu() = default;

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    /**
     * Reset architectural state and per-task cycle accounting for a new
     * task instance. Caches and predictors stay warm (the paper models
     * 200 consecutive executions of a periodic task).
     */
    virtual void resetForTask();

    /**
     * Run until HALT, an unmasked watchdog expiry, or the cycle budget.
     * Resumable: a subsequent call continues from the stop point.
     */
    virtual RunResult run(Cycles max_cycles = noCycleLimit) = 0;

    /** Invalidate caches and predictors (Fig. 4 induced mispredictions). */
    virtual void flushCachesAndPredictors();

    /**
     * Bring the pipeline to a preemption point: complete all in-flight
     * work so another task's context can be switched in. Instructions
     * past a run() stop are already functionally executed, so they
     * must retire before the core is handed over — the complex
     * pipeline runs its back-end stages with fetch halted until the
     * ROB and fetch queue are empty; the in-order pipelines stop
     * between instructions and have nothing to drain.
     */
    virtual DrainResult drainForPreemption() { return {}; }

    /**
     * Advance simulated time by @p n cycles with the pipeline idle
     * (models reconfiguration / frequency-switch overhead).
     */
    virtual void advanceIdle(Cycles n) = 0;

    /** Change the core clock; affects miss penalties in cycles. */
    virtual void
    setFrequency(MHz f)
    {
        freq_ = f;
        platform_.setCurrentFreq(f);
    }
    MHz frequency() const { return freq_; }

    /** Cycles elapsed in the current task instance. */
    virtual Cycles cycles() const = 0;

    /** Instructions retired in the current task instance. */
    std::uint64_t retired() const { return retired_; }

    bool halted() const { return halted_; }

    PowerActivity &activity() { return activity_; }
    const PowerActivity &activity() const { return activity_; }

    ArchState &arch() { return core_.state(); }
    ExecCore &execCore() { return core_; }
    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }
    Platform &platform() { return platform_; }

    /**
     * Contribute statistics groups to @p set: cycles, instructions,
     * IPC, cache behavior, and per-structure activity counts under
     * statsName(); subclasses add their own stats on top. The groups
     * hold live formulas capturing `this`, so the set must be dumped
     * while the CPU is alive.
     */
    virtual void buildStats(StatSet &set) const;

    /**
     * Dump simulation statistics (gem5-style "name value # desc"
     * lines), via buildStats().
     */
    void dumpStats(std::ostream &os) const;

    /** Dump the same statistics as a hierarchical JSON document. */
    void dumpStatsJson(std::ostream &os) const;

  protected:
    /** Statistics group name ("simple", "complex"). */
    virtual const char *statsName() const = 0;

  protected:
    /**
     * Refresh activity_.cycles as a *cumulative* count across task
     * instances (access counters accumulate, so the cycle counter must
     * too — the power meter differences snapshots across tasks).
     */
    void
    syncActivityCycles()
    {
        activity_.cycles = activityCycleBase_ + cycles();
    }

    /** Uncontended miss penalty at the current frequency. */
    Cycles missPenalty() const { return memctrl_.stallCycles(freq_); }

    const Program &prog_;
    MainMemory &mem_;
    Platform &platform_;
    MemController &memctrl_;
    Cache icache_;
    Cache dcache_;
    ExecCore core_;
    MHz freq_ = 1000;
    std::uint64_t retired_ = 0;
    bool halted_ = false;
    PowerActivity activity_;
    /** Cycles of completed task instances (see syncActivityCycles). */
    Cycles activityCycleBase_ = 0;
};

} // namespace visa

#endif // VISA_CPU_CPU_HH
