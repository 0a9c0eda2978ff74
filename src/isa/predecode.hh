/**
 * @file
 * Basic-block pre-decode: the translation-cache data structures shared
 * by the functional execution core (src/cpu) and the WCET analyzer's
 * CFG construction (src/wcet).
 *
 * A CodeBlock is the straight-line run of instructions from one entry
 * PC up to and including the next control transfer (or HALT / end of
 * text). Each instruction is stored as a PredecodedInst: the decoded
 * Instruction plus its memory access width. The BlockMap owns all
 * blocks, indexed by start word for O(1) lookup, and carries chained
 * fall-through/taken pointers so steady-state execution never touches
 * the index at all.
 *
 * This module is purely structural: it reads instruction storage the
 * caller provides and never touches MainMemory. Invalidation policy
 * (per-page generation counters, store-to-code detection) lives in the
 * executor that composes a BlockMap with a memory (cpu/cpu.hh).
 */

#ifndef VISA_ISA_PREDECODE_HH
#define VISA_ISA_PREDECODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instruction.hh"
#include "sim/types.hh"

namespace visa
{

/**
 * One pre-resolved instruction record: the decoded Instruction plus
 * its access width, the one per-opcode table value the executor's
 * opcode switch would otherwise reload per dynamic instruction.
 */
struct alignas(16) PredecodedInst
{
    Instruction inst;
    std::uint8_t memBytes = 0;    ///< access width, 0 for non-memory
};

/**
 * @return the length in instructions of the straight-line run starting
 * at @p start: everything up to and including the first control
 * transfer, HALT, or undecodable opcode, clamped to the end of text.
 * Returns 0 when @p start is outside [@p base, @p base + 4*@p n) or
 * misaligned. Shared by the execution block cache and the WCET CFG
 * builder so both carve identical basic blocks.
 */
std::uint32_t straightLineLength(const Instruction *text, std::size_t n,
                                 Addr base, Addr start);

/** A decoded basic block plus its chained control-flow edges. */
struct CodeBlock
{
    Addr startPc = 0;
    /** Word index of startPc in the text segment. */
    std::uint32_t firstWord = 0;
    /** Instruction count, terminator included. */
    std::uint32_t count = 0;
    /** False after invalidation; re-decoded in place on next entry. */
    bool valid = false;
    /**
     * Lazily resolved successor blocks. Chains are hints: the executor
     * must confirm startPc (an indirect jump can go anywhere) and
     * validity before following one. Blocks are never freed before the
     * owning BlockMap, so a stale chain pointer is checkable, not
     * dangling.
     */
    CodeBlock *chainFall = nullptr;
    CodeBlock *chainTaken = nullptr;
    /** The block's count records. */
    std::vector<PredecodedInst> insts;

    /** Address of the instruction after the block's last one. */
    Addr fallPc() const { return startPc + 4 * count; }
};

/**
 * The translation cache: every block decoded so far, indexed by start
 * word. Blocks are allocated once per distinct start PC and re-decoded
 * in place after invalidation, which keeps every CodeBlock* stable for
 * the lifetime of the map.
 */
class BlockMap
{
  public:
    /** Size the index for a text segment of @p words instructions. */
    void reset(std::size_t words);

    /**
     * @return the valid block starting at @p pc, decoding (or
     * re-decoding) it from @p text as needed; nullptr when @p pc is
     * outside the indexed text range or misaligned.
     */
    CodeBlock *ensure(const Instruction *text, std::size_t n, Addr base,
                      Addr pc);

    /**
     * Invalidate every block overlapping word indices
     * [@p lo, @p hi] (inclusive). Blocks stay allocated and are
     * re-decoded in place on their next entry.
     */
    void invalidateWords(std::size_t lo, std::size_t hi);

    /** Blocks decoded or re-decoded since construction. */
    std::uint64_t blocksDecoded() const { return blocksDecoded_; }
    /** ensure() calls served by an already-valid block. */
    std::uint64_t blockHits() const { return blockHits_; }
    /** Blocks invalidated by invalidateWords(). */
    std::uint64_t invalidations() const { return invalidations_; }
    /** Instructions decoded into blocks (counts re-decodes). */
    std::uint64_t instsDecoded() const { return instsDecoded_; }

  private:
    std::vector<std::unique_ptr<CodeBlock>> blocks_;
    /** Start-word -> block, nullptr until first entry at that PC. */
    std::vector<CodeBlock *> byWord_;
    std::uint64_t blocksDecoded_ = 0;
    std::uint64_t blockHits_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t instsDecoded_ = 0;
};

} // namespace visa

#endif // VISA_ISA_PREDECODE_HH
