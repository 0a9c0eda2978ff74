/**
 * @file
 * The assembler's back end: statements in, a loadable Program out.
 *
 * A statement is what one source line says after its labels: a
 * mnemonic or a directive with its operands. The back end owns
 * everything that gives statements meaning: label addresses, the
 * directives, the operand roles of every mnemonic and their error
 * text, pseudo-instruction expansion, `.loopbound`/`.subtask`
 * attachment, symbol resolution and encoding. It has two producers:
 *
 *  - the text front end, assemble() (isa/assembler.hh), which splits
 *    each source line into labels, a head and operand tokens;
 *  - AsmBuilder (workloads/asm_builder.hh), whose typed emitters render
 *    a statement's source line and record the statement itself, so a
 *    program built only from typed statements is assembled without its
 *    text being lexed again.
 *
 * An operand is either a source token, which the back end reads by the
 * role the mnemonic or directive gives it, or a typed value that means
 * what appendOperand() renders it as. A typed operand of a kind that
 * does not fit its role is an error, reported with its rendering.
 */

#ifndef VISA_ISA_ASM_BACKEND_HH
#define VISA_ISA_ASM_BACKEND_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "isa/program.hh"

namespace visa
{

/** One operand of an assembler statement. */
struct AsmOperand
{
    enum Kind : std::uint8_t
    {
        Token,      ///< source text, read by role
        IntReg,     ///< r<reg>
        FpReg,      ///< f<reg>
        Literal,    ///< decimal integer <value>
        HexLiteral, ///< 0x<VALUE> (upper-case hex digits)
        Symbol,     ///< <text>
        Memory,     ///< <value>(r<reg>)
    };

    Kind kind = Token;
    std::uint8_t reg = 0;       ///< register, or a Memory base register
    std::int64_t value = 0;     ///< literal, or Memory offset
    std::string_view text;      ///< Token text or Symbol name

    static AsmOperand token(std::string_view t) { return {Token, 0, 0, t}; }

    static AsmOperand
    intReg(int r)
    {
        return {IntReg, static_cast<std::uint8_t>(r), 0, {}};
    }

    static AsmOperand
    fpReg(int r)
    {
        return {FpReg, static_cast<std::uint8_t>(r), 0, {}};
    }

    static AsmOperand imm(std::int64_t v) { return {Literal, 0, v, {}}; }

    static AsmOperand
    hexImm(std::int64_t v)
    {
        return {HexLiteral, 0, v, {}};
    }

    static AsmOperand
    sym(std::string_view name)
    {
        return {Symbol, 0, 0, name};
    }

    static AsmOperand
    mem(std::int64_t offset, int base)
    {
        return {Memory, static_cast<std::uint8_t>(base), offset, {}};
    }
};

/** Append @p op as it is written in assembly source. */
void appendOperand(std::string &out, const AsmOperand &op);

/**
 * Statements to Program. Feed label() and statement() calls in source
 * order, then call finish() once. Every string_view handed in (heads,
 * tokens, symbol names, labels) must stay valid until finish() returns.
 * Errors raise FatalError as "assembler: line N: ..." with the line set
 * by setLine().
 */
class AsmBackend
{
  public:
    AsmBackend(Addr text_base, Addr data_base);

    /** Attribute the statements that follow to source line @p line. */
    void setLine(int line) { line_ = line; }

    /** Define label @p name at the current text or data address. */
    void label(std::string_view name);

    /**
     * One instruction, or a directive when @p head starts with '.'.
     * `.ascii`/`.asciz` take a single token: the rest of their line.
     */
    void statement(std::string_view head, std::span<const AsmOperand> ops);

    /** Resolve every symbol and encode the text segment. */
    Program finish();

  private:
    /** How an immediate is resolved once every label is known. */
    struct ImmSpec
    {
        enum Kind { None, Literal, Symbol, SymbolHi, SymbolLo } kind = None;
        std::int64_t value = 0;     ///< literal value or symbol addend
        std::string_view symbol;
    };

    /** An instruction awaiting symbol resolution. */
    struct ProtoInst
    {
        Opcode op = Opcode::NOP;
        std::uint8_t rd = 0, rs = 0, rt = 0;
        ImmSpec imm;
        int line = 0;
    };

    /** A pending fixup in the data segment (e.g. .word label). */
    struct DataFixup
    {
        std::size_t offset;         ///< byte offset in the data vector
        ImmSpec imm;
        int line;
    };

    void directive(std::string_view dir, std::span<const AsmOperand> ops);
    void dataValues(std::string_view dir, std::span<const AsmOperand> ops);
    void instruction(std::string_view mnem, std::span<const AsmOperand> ops);
    void fillOperands(ProtoInst &p, std::string_view roles,
                      std::span<const AsmOperand> ops);
    void emit(ProtoInst pi);

    // Operand readers, one per role.
    int reg(const AsmOperand &op, bool fp) const;
    static bool isInt(const AsmOperand &op);
    std::int64_t intValue(const AsmOperand &op) const;
    ImmSpec imm(const AsmOperand &op) const;
    /** The value of @p s once every label is known (text and data). */
    std::int64_t resolve(const ImmSpec &s, int line) const;
    /** A Token's or Symbol's text; empty for any other operand. */
    static std::string_view name(const AsmOperand &op);

    Addr
    curTextAddr() const
    {
        return prog_.textBase + static_cast<Addr>(protos_.size() * 4);
    }

    Program prog_;
    std::vector<ProtoInst> protos_;
    std::vector<DataFixup> dataFixups_;
    bool inText_ = true;
    int line_ = 0;
    std::optional<std::uint64_t> pendingLoopBound_;
    std::optional<int> pendingSubtask_;
    std::string_view entryLabel_;
};

} // namespace visa

#endif // VISA_ISA_ASM_BACKEND_HH
