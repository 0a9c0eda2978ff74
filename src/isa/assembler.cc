#include "isa/assembler.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <optional>
#include <string_view>

#include "isa/encoding.hh"
#include "sim/logging.hh"

namespace visa
{

namespace
{

using std::string_view;

/** How an immediate/operand is resolved once every label is known. */
struct ImmSpec
{
    enum Kind { None, Literal, Symbol, SymbolHi, SymbolLo } kind = None;
    std::int64_t value = 0;     ///< literal value or symbol addend
    string_view symbol;         ///< a view into the source text
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
    string_view symbol;
    std::int64_t addend;
    int line;
};

[[noreturn]] void
asmError(int line, const std::string &msg)
{
    fatal("assembler: line %d: %s", line, msg.c_str());
}

std::string
quoted(string_view tok)
{
    return "'" + std::string(tok) + "'";
}

// Character classes of the "C" locale, without the locale lookup.
constexpr bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

constexpr bool
isXDigit(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

constexpr bool
isLabelChar(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           c == '_' || c == '.';
}

string_view
skipSpace(string_view s)
{
    std::size_t i = 0;
    while (i < s.size() && isSpace(s[i]))
        ++i;
    return s.substr(i);
}

/**
 * Consume and return the next comma/whitespace-separated token of
 * @p rest; empty once @p rest holds no more tokens.
 */
string_view
nextToken(string_view &rest)
{
    std::size_t i = 0;
    while (i < rest.size() && (rest[i] == ',' || isSpace(rest[i])))
        ++i;
    std::size_t j = i;
    while (j < rest.size() && rest[j] != ',' && !isSpace(rest[j]))
        ++j;
    const string_view tok = rest.substr(i, j - i);
    rest.remove_prefix(j);
    return tok;
}

/**
 * The operands of one statement. Keeps the first three tokens (no
 * instruction or fixed-arity directive takes more) but counts them all,
 * so arity errors report the real number.
 */
class Operands
{
  public:
    explicit Operands(string_view rest)
    {
        for (string_view tok = nextToken(rest); !tok.empty();
             tok = nextToken(rest)) {
            if (count_ < toks_.size())
                toks_[count_] = tok;
            ++count_;
        }
    }

    std::size_t size() const { return count_; }
    string_view operator[](std::size_t i) const { return toks_[i]; }

  private:
    std::array<string_view, 3> toks_;
    std::size_t count_ = 0;
};

/** A register operand: integer or FP file, or neither (index < 0). */
struct Reg
{
    bool fp = false;
    int index = -1;
};

Reg
parseReg(string_view tok)
{
    if (tok.size() >= 2 && (tok[0] == 'r' || tok[0] == 'f') &&
        isDigit(tok[1])) {
        unsigned index = 0;
        const char *end = tok.data() + tok.size();
        auto [p, ec] = std::from_chars(tok.data() + 1, end, index);
        if (ec != std::errc() || p != end || index >= 32)
            return {};
        return {tok[0] == 'f', static_cast<int>(index)};
    }
    static constexpr std::pair<string_view, int> aliases[] = {
        {"zero", reg::zero}, {"at", reg::at}, {"gp", reg::gp},
        {"sp", reg::sp},     {"fp", reg::fp}, {"ra", reg::ra},
    };
    for (const auto &[name, index] : aliases)
        if (tok == name)
            return {false, index};
    return {};
}

/** A C-style integer literal split into sign, radix and digits. */
struct IntLiteral
{
    bool neg = false;
    int base = 10;
    string_view digits;     ///< after any sign and 0x / 0 prefix
};

IntLiteral
splitIntLiteral(string_view tok)
{
    IntLiteral lit;
    if (!tok.empty() && (tok[0] == '-' || tok[0] == '+')) {
        lit.neg = tok[0] == '-';
        tok.remove_prefix(1);
    }
    if (tok.size() > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X')) {
        lit.base = 16;
        tok.remove_prefix(2);
    } else if (tok.size() > 1 && tok[0] == '0') {
        lit.base = 8;
        tok.remove_prefix(1);
    }
    lit.digits = tok;
    return lit;
}

/** Shape of an integer literal: [+-] then decimal digits or 0x hex. */
bool
isIntLiteral(string_view tok)
{
    const IntLiteral lit = splitIntLiteral(tok);
    return !lit.digits.empty() &&
           std::all_of(lit.digits.begin(), lit.digits.end(),
                       lit.base == 16 ? isXDigit : isDigit);
}

/**
 * Value of an integer literal (decimal, 0x hex or 0 octal, optionally
 * signed). The whole token must parse and fit in 64 signed bits.
 */
std::int64_t
parseIntLiteral(string_view tok, int line)
{
    const IntLiteral lit = splitIntLiteral(tok);
    std::uint64_t mag = 0;
    const char *end = lit.digits.data() + lit.digits.size();
    auto [p, ec] = std::from_chars(lit.digits.data(), end, mag, lit.base);
    const std::uint64_t limit = (std::uint64_t{1} << 63) - (lit.neg ? 0 : 1);
    if (ec != std::errc() || p != end || mag > limit)
        asmError(line, "bad integer literal " + quoted(tok));
    return static_cast<std::int64_t>(lit.neg ? 0 - mag : mag);
}

/** Parse an immediate operand: literal, %hi(sym), %lo(sym), or symbol. */
ImmSpec
parseImm(string_view tok, int line)
{
    if (isIntLiteral(tok))
        return {ImmSpec::Literal, parseIntLiteral(tok, line), {}};
    if (tok.size() > 4 && tok[3] == '(' && tok.back() == ')') {
        const string_view fn = tok.substr(0, 3);
        const string_view sym = tok.substr(4, tok.size() - 5);
        if (fn == "%hi")
            return {ImmSpec::SymbolHi, 0, sym};
        if (fn == "%lo")
            return {ImmSpec::SymbolLo, 0, sym};
    }
    // symbol, optionally with +addend
    const auto plus = tok.find('+');
    if (plus == string_view::npos)
        return {ImmSpec::Symbol, 0, tok};
    return {ImmSpec::Symbol, parseIntLiteral(tok.substr(plus + 1), line),
            tok.substr(0, plus)};
}

/** How a mnemonic's operands become one or more instructions. */
enum class Form : std::uint8_t
{
    Plain,      ///< one instruction; operands fill the fields in `roles`
    Jalr,       ///< "jalr rs" (rd = ra) or "jalr rd, rs"
    Li,         ///< literal load: addi, or lui [+ ori]
    La,         ///< symbol address: lui %hi + ori %lo
    Subi,       ///< addi of the negated literal
    CmpBranch,  ///< slt at, a, b + branch on at
    CmpBranchSwapped,   ///< slt at, b, a + branch on at
};

/**
 * One assembler mnemonic. `roles` names, per operand in order, the
 * field it fills: d/s/t an integer rd/rs/rt, D/S/T an FP rd/rs/rt,
 * i the immediate, m an "off(base)" memory operand (imm + base in rs).
 * Fields no operand names stay 0, i.e. r0/f0 and no immediate.
 */
struct Mnemonic
{
    string_view name;
    Opcode op = Opcode::NOP;
    string_view roles;
    Form form = Form::Plain;
};

constexpr Mnemonic kMnemonics[] = {
    {"add", Opcode::ADD, "dst"},      {"sub", Opcode::SUB, "dst"},
    {"mul", Opcode::MUL, "dst"},      {"div", Opcode::DIV, "dst"},
    {"rem", Opcode::REM, "dst"},      {"and", Opcode::AND, "dst"},
    {"or", Opcode::OR, "dst"},        {"xor", Opcode::XOR, "dst"},
    {"nor", Opcode::NOR, "dst"},      {"slt", Opcode::SLT, "dst"},
    {"sltu", Opcode::SLTU, "dst"},    {"sllv", Opcode::SLLV, "dst"},
    {"srlv", Opcode::SRLV, "dst"},    {"srav", Opcode::SRAV, "dst"},
    {"sll", Opcode::SLL, "dsi"},      {"srl", Opcode::SRL, "dsi"},
    {"sra", Opcode::SRA, "dsi"},      {"addi", Opcode::ADDI, "dsi"},
    {"andi", Opcode::ANDI, "dsi"},    {"ori", Opcode::ORI, "dsi"},
    {"xori", Opcode::XORI, "dsi"},    {"slti", Opcode::SLTI, "dsi"},
    {"sltiu", Opcode::SLTIU, "dsi"},  {"lui", Opcode::LUI, "di"},
    {"lb", Opcode::LB, "dm"},         {"lbu", Opcode::LBU, "dm"},
    {"lh", Opcode::LH, "dm"},         {"lhu", Opcode::LHU, "dm"},
    {"lw", Opcode::LW, "dm"},         {"ldc1", Opcode::LDC1, "Dm"},
    {"l.d", Opcode::LDC1, "Dm"},      {"sb", Opcode::SB, "tm"},
    {"sh", Opcode::SH, "tm"},         {"sw", Opcode::SW, "tm"},
    {"sdc1", Opcode::SDC1, "Tm"},     {"s.d", Opcode::SDC1, "Tm"},
    {"beq", Opcode::BEQ, "sti"},      {"bne", Opcode::BNE, "sti"},
    {"blez", Opcode::BLEZ, "si"},     {"bgtz", Opcode::BGTZ, "si"},
    {"bltz", Opcode::BLTZ, "si"},     {"bgez", Opcode::BGEZ, "si"},
    {"bc1t", Opcode::BC1T, "i"},      {"bc1f", Opcode::BC1F, "i"},
    {"j", Opcode::J, "i"},            {"jal", Opcode::JAL, "i"},
    {"jr", Opcode::JR, "s"},          {"jalr", Opcode::JALR, "ds", Form::Jalr},
    {"add.d", Opcode::ADD_D, "DST"},  {"sub.d", Opcode::SUB_D, "DST"},
    {"mul.d", Opcode::MUL_D, "DST"},  {"div.d", Opcode::DIV_D, "DST"},
    {"neg.d", Opcode::NEG_D, "DS"},   {"abs.d", Opcode::ABS_D, "DS"},
    {"mov.d", Opcode::MOV_D, "DS"},   {"cvt.d.w", Opcode::CVT_D_W, "Ds"},
    {"cvt.w.d", Opcode::CVT_W_D, "dS"},
    {"c.eq.d", Opcode::C_EQ_D, "ST"}, {"c.lt.d", Opcode::C_LT_D, "ST"},
    {"c.le.d", Opcode::C_LE_D, "ST"}, {"nop", Opcode::NOP, ""},
    {"halt", Opcode::HALT, ""},
    // ---- pseudo-instructions ----
    {"li", Opcode::ADDI, "di", Form::Li},
    {"la", Opcode::LUI, "di", Form::La},
    {"move", Opcode::OR, "ds"},       {"b", Opcode::BEQ, "i"},
    {"blt", Opcode::BNE, "sti", Form::CmpBranch},
    {"bge", Opcode::BEQ, "sti", Form::CmpBranch},
    {"bgt", Opcode::BNE, "sti", Form::CmpBranchSwapped},
    {"ble", Opcode::BEQ, "sti", Form::CmpBranchSwapped},
    {"subi", Opcode::ADDI, "dsi", Form::Subi},
    {"neg", Opcode::SUB, "dt"},       {"not", Opcode::NOR, "ds"},
};

/**
 * A name of up to 7 characters packed into one integer, its length in
 * the top byte, so the mnemonic search compares integers instead of
 * strings; 0 for longer names (no mnemonic is longer).
 */
constexpr std::uint64_t
nameKey(string_view name)
{
    if (name.size() > 7)
        return 0;
    std::uint64_t key = std::uint64_t{name.size()} << 56;
    for (std::size_t i = 0; i < name.size(); ++i)
        key |= std::uint64_t{static_cast<unsigned char>(name[i])} << (8 * i);
    return key;
}

/** kMnemonics sorted by nameKey, for binary search. */
constexpr auto kMnemonicIndex = [] {
    std::array<std::pair<std::uint64_t, const Mnemonic *>,
               std::size(kMnemonics)> t{};
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = {nameKey(kMnemonics[i].name), &kMnemonics[i]};
    std::sort(t.begin(), t.end());
    return t;
}();

static_assert(std::adjacent_find(kMnemonicIndex.begin(),
                                 kMnemonicIndex.end(),
                                 [](const auto &a, const auto &b) {
                                     return a.first == b.first;
                                 }) == kMnemonicIndex.end() &&
                  kMnemonicIndex.front().first != 0,
              "mnemonics must be unique and at most 7 characters");

const Mnemonic *
findMnemonic(string_view name)
{
    const std::uint64_t key = nameKey(name);
    auto it = std::lower_bound(
        kMnemonicIndex.begin(), kMnemonicIndex.end(), key,
        [](const auto &entry, std::uint64_t k) { return entry.first < k; });
    return it != kMnemonicIndex.end() && it->first == key ? it->second
                                                          : nullptr;
}

/** Largest `.align` exponent: 64 KiB boundaries. */
constexpr std::int64_t maxAlignLog2 = 16;

/** The assembler state machine. */
class Assembler
{
  public:
    Assembler(Addr text_base, Addr data_base)
    {
        prog.textBase = text_base;
        prog.dataBase = data_base;
        prog.entry = text_base;
    }

    Program run(string_view source);

  private:
    void processLine(string_view line);
    void directive(string_view dir, string_view rest);
    void dataValues(string_view dir, string_view rest);
    void instruction(string_view mnem, const Operands &ops);
    void fillOperands(ProtoInst &p, string_view roles, const Operands &ops);
    void emit(ProtoInst pi);
    void resolve();

    int intReg(string_view tok);
    int fpReg(string_view tok);

    Addr curTextAddr() const
    {
        return prog.textBase + static_cast<Addr>(protos.size() * 4);
    }

    Program prog;
    std::vector<ProtoInst> protos;
    std::vector<DataFixup> dataFixups;
    bool inText = true;
    int lineNo = 0;
    std::optional<std::uint64_t> pendingLoopBound;
    std::optional<int> pendingSubtask;
    string_view entryLabel;
};

int
Assembler::intReg(string_view tok)
{
    const Reg r = parseReg(tok);
    if (r.index < 0 || r.fp)
        asmError(lineNo, "expected integer register, got " + quoted(tok));
    return r.index;
}

int
Assembler::fpReg(string_view tok)
{
    const Reg r = parseReg(tok);
    if (r.index < 0 || !r.fp)
        asmError(lineNo, "expected FP register, got " + quoted(tok));
    return r.index;
}

void
Assembler::emit(ProtoInst pi)
{
    pi.line = lineNo;
    if (pendingLoopBound) {
        prog.loopBounds[curTextAddr()] = *pendingLoopBound;
        pendingLoopBound.reset();
    }
    if (pendingSubtask) {
        prog.subtaskStarts[curTextAddr()] = *pendingSubtask;
        pendingSubtask.reset();
    }
    protos.push_back(pi);
}

void
Assembler::directive(string_view dir, string_view rest)
{
    if (dir == ".word" || dir == ".half" || dir == ".byte" ||
        dir == ".double" || dir == ".ascii" || dir == ".asciz") {
        if (inText)
            asmError(lineNo, std::string(dir) + " only allowed in .data");
        dataValues(dir, rest);
        return;
    }
    const Operands ops(rest);
    auto oneInt = [&] {
        if (ops.size() != 1 || !isIntLiteral(ops[0]))
            asmError(lineNo, std::string(dir) + " needs one integer");
        return parseIntLiteral(ops[0], lineNo);
    };
    if (dir == ".text") {
        inText = true;
    } else if (dir == ".data") {
        inText = false;
    } else if (dir == ".global") {
        // accepted and ignored
    } else if (dir == ".entry") {
        if (ops.size() != 1)
            asmError(lineNo, ".entry needs one label");
        entryLabel = ops[0];
    } else if (dir == ".equ") {
        // .equ NAME, VALUE — an absolute symbol usable anywhere a
        // symbol operand is (immediates, %hi/%lo, .word).
        if (ops.size() != 2 || !isIntLiteral(ops[1]))
            asmError(lineNo, ".equ needs a name and an integer");
        auto [it, fresh] = prog.symbols.try_emplace(std::string(ops[0]));
        if (!fresh)
            asmError(lineNo, "duplicate symbol " + quoted(ops[0]));
        it->second = static_cast<Addr>(parseIntLiteral(ops[1], lineNo));
    } else if (dir == ".loopbound") {
        const std::int64_t n = oneInt();
        if (n < 1)
            asmError(lineNo, ".loopbound must be at least 1");
        pendingLoopBound = static_cast<std::uint64_t>(n);
    } else if (dir == ".subtask") {
        pendingSubtask = static_cast<int>(oneInt());
    } else if (dir == ".space") {
        if (inText)
            asmError(lineNo, ".space only allowed in .data");
        const std::int64_t n = oneInt();
        // The segment has to fit the 32-bit address space.
        const std::uint64_t room = (std::uint64_t{1} << 32) - prog.dataBase;
        if (n < 0 || prog.data.size() + static_cast<std::uint64_t>(n) > room)
            asmError(lineNo, ".space size out of range");
        prog.data.resize(prog.data.size() + static_cast<std::size_t>(n));
    } else if (dir == ".align") {
        const std::int64_t n = oneInt();
        if (n < 0 || n > maxAlignLog2)
            asmError(lineNo, ".align exponent out of range (0.." +
                                 std::to_string(maxAlignLog2) + ")");
        const std::size_t align = std::size_t{1} << n;
        if (inText) {
            while ((protos.size() * 4) % align != 0)
                emit(ProtoInst{});
        } else {
            prog.data.resize((prog.data.size() + align - 1) & ~(align - 1));
        }
    } else {
        asmError(lineNo, "unknown directive " + quoted(dir));
    }
}

void
Assembler::dataValues(string_view dir, string_view rest)
{
    auto put = [&](std::uint64_t v, int width) {
        for (int b = 0; b < width; ++b)
            prog.data.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    };
    if (dir == ".ascii" || dir == ".asciz") {
        // The operand is everything between the first and last quote.
        const auto first = rest.find('"');
        const auto last = rest.rfind('"');
        if (first == string_view::npos || last <= first)
            asmError(lineNo, std::string(dir) +
                                 " needs a double-quoted string");
        const string_view text = rest.substr(first + 1, last - first - 1);
        for (std::size_t i = 0; i < text.size(); ++i) {
            char c = text[i];
            if (c == '\\' && i + 1 < text.size()) {
                char e = text[++i];
                c = e == 'n' ? '\n' : e == 't' ? '\t' : e == '0' ? '\0'
                                                                 : e;
            }
            prog.data.push_back(static_cast<std::uint8_t>(c));
        }
        if (dir == ".asciz")
            prog.data.push_back(0);
        return;
    }
    const int width = dir == ".word" ? 4 : dir == ".half" ? 2 : 1;
    for (string_view tok = nextToken(rest); !tok.empty();
         tok = nextToken(rest)) {
        if (dir == ".double") {
            double d;
            try {
                d = std::stod(std::string(tok));
            } catch (...) {
                asmError(lineNo, "bad double literal " + quoted(tok));
            }
            std::uint64_t bits;
            std::memcpy(&bits, &d, 8);
            put(bits, 8);
        } else if (isIntLiteral(tok)) {
            put(static_cast<std::uint64_t>(parseIntLiteral(tok, lineNo)),
                width);
        } else {
            if (width != 4)
                asmError(lineNo, "symbol data must be .word");
            const ImmSpec s = parseImm(tok, lineNo);
            dataFixups.push_back(
                {prog.data.size(), s.symbol, s.value, lineNo});
            put(0, 4);
        }
    }
}

void
Assembler::fillOperands(ProtoInst &p, string_view roles, const Operands &ops)
{
    for (std::size_t k = 0; k < roles.size(); ++k) {
        const string_view tok = ops[k];
        switch (roles[k]) {
          case 'd': p.rd = static_cast<std::uint8_t>(intReg(tok)); break;
          case 's': p.rs = static_cast<std::uint8_t>(intReg(tok)); break;
          case 't': p.rt = static_cast<std::uint8_t>(intReg(tok)); break;
          case 'D': p.rd = static_cast<std::uint8_t>(fpReg(tok)); break;
          case 'S': p.rs = static_cast<std::uint8_t>(fpReg(tok)); break;
          case 'T': p.rt = static_cast<std::uint8_t>(fpReg(tok)); break;
          case 'i': p.imm = parseImm(tok, lineNo); break;
          case 'm': {
            const auto open = tok.rfind('(');
            if (open == string_view::npos || tok.back() != ')')
                asmError(lineNo, "bad memory operand " + quoted(tok));
            const Reg base =
                parseReg(tok.substr(open + 1, tok.size() - open - 2));
            if (base.index < 0 || base.fp)
                asmError(lineNo, "bad base register in " + quoted(tok));
            p.rs = static_cast<std::uint8_t>(base.index);
            p.imm = open == 0 ? ImmSpec{ImmSpec::Literal, 0, {}}
                              : parseImm(tok.substr(0, open), lineNo);
            break;
          }
        }
    }
}

void
Assembler::instruction(string_view mnem, const Operands &ops)
{
    const Mnemonic *m = findMnemonic(mnem);
    if (!m)
        asmError(lineNo, "unknown mnemonic " + quoted(mnem));
    ProtoInst p;
    p.op = m->op;
    string_view roles = m->roles;
    if (m->form == Form::Jalr && ops.size() == 1) {
        p.rd = reg::ra;
        roles = "s";
    }
    if (ops.size() != roles.size())
        asmError(lineNo, std::string(mnem) + " expects " +
                             std::to_string(m->roles.size()) +
                             " operands, got " + std::to_string(ops.size()));

    switch (m->form) {
      case Form::Plain:
      case Form::Jalr:
        fillOperands(p, roles, ops);
        emit(p);
        break;
      case Form::Subi:
        fillOperands(p, roles, ops);
        if (p.imm.kind != ImmSpec::Literal)
            asmError(lineNo, "subi needs a literal");
        // Wraps like the two's-complement machine for INT64_MIN.
        p.imm.value = static_cast<std::int64_t>(
            0 - static_cast<std::uint64_t>(p.imm.value));
        emit(p);
        break;
      case Form::Li: {
        const auto rd = static_cast<std::uint8_t>(intReg(ops[0]));
        if (!isIntLiteral(ops[1]))
            asmError(lineNo, "li needs a literal (use la for symbols)");
        const std::int64_t v = parseIntLiteral(ops[1], lineNo);
        if (v >= -32768 && v <= 32767) {
            emit({Opcode::ADDI, rd, reg::zero, 0, {ImmSpec::Literal, v, {}}});
        } else {
            emit({Opcode::LUI, rd, 0, 0,
                  {ImmSpec::Literal, (v >> 16) & 0xFFFF, {}}});
            if ((v & 0xFFFF) != 0)
                emit({Opcode::ORI, rd, rd, 0,
                      {ImmSpec::Literal, v & 0xFFFF, {}}});
        }
        break;
      }
      case Form::La: {
        const auto rd = static_cast<std::uint8_t>(intReg(ops[0]));
        ImmSpec s = parseImm(ops[1], lineNo);
        if (s.kind != ImmSpec::Symbol)
            asmError(lineNo, "la needs a symbol operand");
        s.kind = ImmSpec::SymbolHi;
        emit({Opcode::LUI, rd, 0, 0, s});
        s.kind = ImmSpec::SymbolLo;
        emit({Opcode::ORI, rd, rd, 0, s});
        break;
      }
      case Form::CmpBranch:
      case Form::CmpBranchSwapped: {
        const bool swap = m->form == Form::CmpBranchSwapped;
        ProtoInst cmp;
        cmp.op = Opcode::SLT;
        cmp.rd = reg::at;
        cmp.rs = static_cast<std::uint8_t>(intReg(ops[swap ? 1 : 0]));
        cmp.rt = static_cast<std::uint8_t>(intReg(ops[swap ? 0 : 1]));
        emit(cmp);
        p.rs = reg::at;
        p.rt = reg::zero;
        p.imm = parseImm(ops[2], lineNo);
        emit(p);
        break;
      }
    }
}

void
Assembler::processLine(string_view line)
{
    // Strip comments.
    for (std::size_t i = 0; i < line.size(); ++i)
        if (line[i] == '#' || line[i] == ';') {
            line = line.substr(0, i);
            break;
        }
    // Leading label(s).
    for (;;) {
        line = skipSpace(line);
        std::size_t j = 0;
        while (j < line.size() && isLabelChar(line[j]))
            ++j;
        if (j == 0 || j == line.size() || line[j] != ':' || line[0] == '.')
            break;
        const string_view label = line.substr(0, j);
        const Addr addr = inText
            ? curTextAddr()
            : prog.dataBase + static_cast<Addr>(prog.data.size());
        if (!prog.symbols.try_emplace(std::string(label), addr).second)
            asmError(lineNo, "duplicate label " + quoted(label));
        line.remove_prefix(j + 1);
    }
    // Statement: a head token, then its operands.
    std::size_t h = 0;
    while (h < line.size() && !isSpace(line[h]))
        ++h;
    if (h == 0)
        return;
    const string_view head = line.substr(0, h);
    const string_view rest = line.substr(h);
    if (head[0] == '.') {
        directive(head, rest);
    } else {
        if (!inText)
            asmError(lineNo, "instruction in .data segment");
        instruction(head, Operands(rest));
    }
}

void
Assembler::resolve()
{
    auto symAddr = [&](string_view name, int line) -> Addr {
        auto it = prog.symbols.find(std::string(name));
        if (it == prog.symbols.end())
            asmError(line, "undefined symbol " + quoted(name));
        return it->second;
    };

    prog.text.reserve(protos.size());
    prog.words.reserve(protos.size());
    for (std::size_t i = 0; i < protos.size(); ++i) {
        const ProtoInst &p = protos[i];
        Addr pc = prog.textBase + static_cast<Addr>(i * 4);
        Instruction inst;
        inst.op = p.op;
        inst.rd = p.rd;
        inst.rs = p.rs;
        inst.rt = p.rt;
        std::int64_t v = 0;
        switch (p.imm.kind) {
          case ImmSpec::None:
            break;
          case ImmSpec::Literal:
            v = p.imm.value;
            break;
          case ImmSpec::Symbol:
            v = static_cast<std::int64_t>(symAddr(p.imm.symbol, p.line)) +
                p.imm.value;
            break;
          case ImmSpec::SymbolHi:
            v = (symAddr(p.imm.symbol, p.line) + p.imm.value) >> 16;
            break;
          case ImmSpec::SymbolLo:
            v = (symAddr(p.imm.symbol, p.line) + p.imm.value) & 0xFFFF;
            break;
        }
        inst.imm = static_cast<std::int32_t>(v);
        // Range checks for plain immediates (branch ranges are checked
        // by the encoder, which sees absolute targets).
        if (!inst.isControl() && p.imm.kind == ImmSpec::Literal) {
            bool unsigned_imm = inst.op == Opcode::ANDI ||
                                inst.op == Opcode::ORI ||
                                inst.op == Opcode::XORI ||
                                inst.op == Opcode::LUI;
            if (unsigned_imm) {
                if (v < 0 || v > 0xFFFF)
                    asmError(p.line, "immediate out of unsigned-16 range");
            } else if (inst.op == Opcode::SLL || inst.op == Opcode::SRL ||
                       inst.op == Opcode::SRA) {
                if (v < 0 || v > 31)
                    asmError(p.line, "shift amount out of range");
            } else if (v < -32768 || v > 32767) {
                asmError(p.line, "immediate out of signed-16 range");
            }
        }
        prog.text.push_back(inst);
        prog.words.push_back(encode(inst, pc));
    }

    for (const auto &fix : dataFixups) {
        Addr v = symAddr(fix.symbol, fix.line) +
                 static_cast<Addr>(fix.addend);
        for (int b = 0; b < 4; ++b)
            prog.data[fix.offset + static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>((v >> (8 * b)) & 0xFF);
    }

    if (!entryLabel.empty())
        prog.entry = symAddr(entryLabel, 0);
}

Program
Assembler::run(string_view source)
{
    while (!source.empty()) {
        const std::size_t nl = source.find('\n');
        ++lineNo;
        processLine(source.substr(0, nl));
        source.remove_prefix(nl == string_view::npos ? source.size()
                                                     : nl + 1);
    }
    if (protos.empty())
        fatal("assembler: empty program");
    resolve();
    return std::move(prog);
}

} // anonymous namespace

Program
assemble(const std::string &source, Addr text_base, Addr data_base)
{
    return Assembler(text_base, data_base).run(source);
}

} // namespace visa
