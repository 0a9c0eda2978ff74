/**
 * @file
 * Assembly-source builder shared by the C-lab workload generators and
 * the verify program generator: emits the sub-task instrumentation
 * snippets of paper §2.2/§4.3 (watchdog advance, cycle-counter reset,
 * AET reporting) and data helpers. Snippets clobber r1 (at) and r25
 * only; workload code must keep its state out of those two registers.
 *
 * Lines come from two kinds of emitter. Free-form ones (ins(),
 * doubles()) only append text, so such a builder's source goes through
 * assemble(). Typed ones (inst(), label(), the snippets, words(),
 * space(), beginData(), finish()) append the line ins() would print and
 * also record the statement; a builder that used nothing else hands its
 * statements to the assembler's back end in program(), without lexing
 * its own source again.
 */

#ifndef VISA_WORKLOADS_ASM_BUILDER_HH
#define VISA_WORKLOADS_ASM_BUILDER_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "isa/asm_backend.hh"
#include "isa/program.hh"

namespace visa
{

/** Incremental assembly builder. */
class AsmBuilder
{
  public:
    /** Append one free-form instruction/directive line (printf-style). */
    void ins(const char *fmt, ...) __attribute__((format(printf, 2, 3)));

    /**
     * Append one typed statement: an instruction, or a directive when
     * @p head starts with '.'. @p head must outlive the builder (a
     * string literal).
     */
    void inst(std::string_view head, std::span<const AsmOperand> ops);

    void
    inst(std::string_view head, std::initializer_list<AsmOperand> ops = {})
    {
        inst(head, std::span<const AsmOperand>(ops.begin(), ops.size()));
    }

    /** Append a label line. */
    void label(std::string_view name);

    /**
     * Emit the sub-task begin snippet: report the previous sub-task's
     * AET (not for the first), announce the new sub-task, reset the
     * cycle counter, and advance the watchdog from the wdinc parameter
     * table the run-time system maintains in guest memory.
     */
    void subtaskBegin(int i);

    /**
     * Emit the task epilogue: report the last sub-task's AET, publish
     * the functional checksum from integer register @p ck_reg, and
     * halt.
     */
    void taskEnd(int ck_reg);

    /** Switch to the data segment. */
    void beginData() { inst(".data"); }

    /** Emit labelled .word data, 8 values per line. */
    void words(std::string_view name, const std::vector<std::int32_t> &vals);

    /** Emit labelled .double data, 4 values per line (free-form). */
    void doubles(std::string_view name, const std::vector<double> &vals);

    /** Emit labelled zeroed space. */
    void space(std::string_view name, std::size_t bytes);

    /**
     * Finalize: appends the wdinc parameter table sized to the number
     * of sub-tasks emitted, and returns the full source.
     */
    const std::string &finish();

    /**
     * The program the assembler's back end builds from the recorded
     * statements at the default segment bases: the same program
     * assemble(finish()) returns, without lexing the source. Call after
     * finish(); fatal if a free-form line was emitted.
     */
    Program program() const;

    int numSubtasks() const { return numSubtasks_; }

  private:
    /**
     * A typed operand. Its text (a Symbol's name) is not kept as given:
     * program() views it where the operand was rendered into src_.
     */
    struct RecordedOperand
    {
        AsmOperand op;
        std::uint32_t at = 0;   ///< offset of the text in src_
        std::uint32_t len = 0;  ///< length of the text; 0 for none
    };

    /** A typed line: a statement, or a label (no head, one Symbol). */
    struct Statement
    {
        std::string_view head;
        std::uint32_t firstOp = 0;  ///< operands: ops_[firstOp, +numOps)
        std::uint32_t numOps = 0;
        int line = 0;
    };

    /** Append @p op to the source and record it. */
    void operand(const AsmOperand &op);

    std::string src_;
    std::vector<Statement> stmts_;
    std::vector<RecordedOperand> ops_;
    int lines_ = 0;
    bool freeForm_ = false;
    int numSubtasks_ = 0;
};

/** Deterministic LCG for reproducible workload inputs. */
class Lcg
{
  public:
    explicit Lcg(std::uint32_t seed) : state_(seed) {}

    std::uint32_t
    next()
    {
        state_ = state_ * 1664525u + 1013904223u;
        return state_;
    }

    /** Uniform in [lo, hi]. */
    std::int32_t
    range(std::int32_t lo, std::int32_t hi)
    {
        return lo + static_cast<std::int32_t>(
                        next() % static_cast<std::uint32_t>(hi - lo + 1));
    }

    /** Uniform double in [-1, 1) with 20-bit resolution. */
    double
    unit()
    {
        return (static_cast<double>(next() >> 12) /
                static_cast<double>(1u << 20)) *
                   2.0 -
               1.0;
    }

  private:
    std::uint32_t state_;
};

} // namespace visa

#endif // VISA_WORKLOADS_ASM_BUILDER_HH
