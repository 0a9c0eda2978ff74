#include "isa/predecode.hh"

namespace visa
{

namespace
{

/** True when @p op ends a straight-line run (or cannot be decoded). */
bool
endsBlock(Opcode op)
{
    const auto i = static_cast<std::size_t>(op);
    if (i >= detail::numOpcodeSlots)
        return true;    // undecodable word: executed, it panics
    switch (detail::classTable[i]) {
      case InstrClass::CondBranch:
      case InstrClass::DirectJump:
      case InstrClass::IndirectJump:
      case InstrClass::Halt:
        return true;
      default:
        return false;
    }
}

} // anonymous namespace

std::uint32_t
straightLineLength(const Instruction *text, std::size_t n, Addr base,
                   Addr start)
{
    const Addr off = start - base;    // wraps huge when start < base
    if (off >= static_cast<Addr>(n * 4) || (off & 3u) != 0)
        return 0;
    std::size_t i = off >> 2;
    std::uint32_t len = 0;
    for (; i < n; ++i) {
        ++len;
        if (endsBlock(text[i].op))
            break;
    }
    return len;
}

void
BlockMap::reset(std::size_t words)
{
    blocks_.clear();
    byWord_.assign(words, nullptr);
}

CodeBlock *
BlockMap::ensure(const Instruction *text, std::size_t n, Addr base,
                 Addr pc)
{
    const Addr off = pc - base;
    if (off >= static_cast<Addr>(n * 4) || (off & 3u) != 0)
        return nullptr;
    const std::size_t w = off >> 2;
    CodeBlock *&slot = byWord_[w];
    if (!slot) {
        blocks_.push_back(std::make_unique<CodeBlock>());
        slot = blocks_.back().get();
        slot->startPc = pc;
        slot->firstWord = static_cast<std::uint32_t>(w);
    }
    CodeBlock *b = slot;
    if (b->valid) {
        ++blockHits_;
        return b;
    }
    const std::uint32_t len = straightLineLength(text, n, base, pc);
    b->insts.clear();
    b->insts.reserve(len);
    for (std::uint32_t k = 0; k < len; ++k) {
        const Instruction &in = text[w + k];
        PredecodedInst pi;
        pi.inst = in;
        const auto oi = static_cast<std::size_t>(in.op);
        if (oi < detail::numOpcodeSlots) {
            pi.memBytes = detail::memBytesTable[oi];
        } else {
            // Normalize any undecodable opcode to NumOpcodes, the value
            // resyncCode() gives an undecodable word, so the executor's
            // bad-opcode panic names one opcode whatever the word held.
            pi.inst.op = Opcode::NumOpcodes;
        }
        b->insts.push_back(pi);
    }
    b->count = len;
    b->valid = len > 0;
    b->chainFall = nullptr;
    b->chainTaken = nullptr;
    ++blocksDecoded_;
    instsDecoded_ += len;
    return b->valid ? b : nullptr;
}

void
BlockMap::invalidateWords(std::size_t lo, std::size_t hi)
{
    for (const auto &bp : blocks_) {
        CodeBlock *b = bp.get();
        if (!b->valid)
            continue;
        const std::size_t first = b->firstWord;
        const std::size_t last = first + b->count - 1;
        if (first <= hi && last >= lo) {
            b->valid = false;
            ++invalidations_;
        }
    }
}

} // namespace visa
