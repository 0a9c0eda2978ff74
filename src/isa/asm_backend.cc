#include "isa/asm_backend.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>

#include "isa/encoding.hh"
#include "sim/logging.hh"

namespace visa
{

namespace
{

using std::string_view;

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

/** @p op as the source spells it, quoted, for error text. */
std::string
quoted(const AsmOperand &op)
{
    std::string s = "'";
    appendOperand(s, op);
    return s + "'";
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

template <typename T>
void
appendNumber(std::string &out, T v, int base = 10)
{
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, base);
    out.append(buf, end);
}

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

} // anonymous namespace

void
appendOperand(std::string &out, const AsmOperand &op)
{
    switch (op.kind) {
      case AsmOperand::Token:
      case AsmOperand::Symbol:
        out += op.text;
        break;
      case AsmOperand::IntReg:
      case AsmOperand::FpReg:
        out += op.kind == AsmOperand::IntReg ? 'r' : 'f';
        appendNumber(out, op.reg);
        break;
      case AsmOperand::Literal:
        appendNumber(out, op.value);
        break;
      case AsmOperand::HexLiteral: {
        out += "0x";
        const std::size_t first = out.size();
        appendNumber(out, static_cast<std::uint64_t>(op.value), 16);
        for (std::size_t i = first; i < out.size(); ++i)
            if (out[i] >= 'a')
                out[i] = static_cast<char>(out[i] - 'a' + 'A');    // as %X
        break;
      }
      case AsmOperand::Memory:
        appendNumber(out, op.value);
        out += "(r";
        appendNumber(out, op.reg);
        out += ')';
        break;
    }
}

AsmBackend::AsmBackend(Addr text_base, Addr data_base)
{
    prog_.textBase = text_base;
    prog_.dataBase = data_base;
    prog_.entry = text_base;
}

int
AsmBackend::reg(const AsmOperand &op, bool fp) const
{
    Reg r;
    if (op.kind == AsmOperand::Token)
        r = parseReg(op.text);
    else if ((op.kind == AsmOperand::IntReg ||
              op.kind == AsmOperand::FpReg) && op.reg < 32)
        r = {op.kind == AsmOperand::FpReg, op.reg};
    if (r.index < 0 || r.fp != fp)
        asmError(line_, std::string(fp ? "expected FP register, got "
                                       : "expected integer register, got ") +
                            quoted(op));
    return r.index;
}

bool
AsmBackend::isInt(const AsmOperand &op)
{
    return op.kind == AsmOperand::Token
               ? isIntLiteral(op.text)
               : op.kind == AsmOperand::Literal ||
                     op.kind == AsmOperand::HexLiteral;
}

std::int64_t
AsmBackend::intValue(const AsmOperand &op) const
{
    return op.kind == AsmOperand::Token ? parseIntLiteral(op.text, line_)
                                        : op.value;
}

/** Read an immediate: literal, %hi(sym), %lo(sym), or symbol[+addend]. */
AsmBackend::ImmSpec
AsmBackend::imm(const AsmOperand &op) const
{
    switch (op.kind) {
      case AsmOperand::Literal:
      case AsmOperand::HexLiteral:
        return {ImmSpec::Literal, op.value, {}};
      case AsmOperand::Symbol:
        return {ImmSpec::Symbol, 0, op.text};
      case AsmOperand::Token:
        break;
      default:
        asmError(line_, "expected an immediate, got " + quoted(op));
    }
    const string_view tok = op.text;
    if (isIntLiteral(tok))
        return {ImmSpec::Literal, parseIntLiteral(tok, line_), {}};
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
    return {ImmSpec::Symbol, parseIntLiteral(tok.substr(plus + 1), line_),
            tok.substr(0, plus)};
}

string_view
AsmBackend::name(const AsmOperand &op)
{
    return op.kind == AsmOperand::Token || op.kind == AsmOperand::Symbol
               ? op.text
               : string_view{};
}

void
AsmBackend::label(string_view name)
{
    const Addr addr = inText_
        ? curTextAddr()
        : prog_.dataBase + static_cast<Addr>(prog_.data.size());
    if (!prog_.symbols.try_emplace(std::string(name), addr).second)
        asmError(line_, "duplicate label " + quoted(name));
}

void
AsmBackend::statement(string_view head, std::span<const AsmOperand> ops)
{
    if (head[0] == '.') {
        directive(head, ops);
    } else {
        if (!inText_)
            asmError(line_, "instruction in .data segment");
        instruction(head, ops);
    }
}

void
AsmBackend::emit(ProtoInst pi)
{
    pi.line = line_;
    if (pendingLoopBound_) {
        prog_.loopBounds[curTextAddr()] = *pendingLoopBound_;
        pendingLoopBound_.reset();
    }
    if (pendingSubtask_) {
        prog_.subtaskStarts[curTextAddr()] = *pendingSubtask_;
        pendingSubtask_.reset();
    }
    protos_.push_back(pi);
}

void
AsmBackend::directive(string_view dir, std::span<const AsmOperand> ops)
{
    if (dir == ".word" || dir == ".half" || dir == ".byte" ||
        dir == ".double" || dir == ".ascii" || dir == ".asciz") {
        if (inText_)
            asmError(line_, std::string(dir) + " only allowed in .data");
        dataValues(dir, ops);
        return;
    }
    auto oneInt = [&] {
        if (ops.size() != 1 || !isInt(ops[0]))
            asmError(line_, std::string(dir) + " needs one integer");
        return intValue(ops[0]);
    };
    if (dir == ".text") {
        inText_ = true;
    } else if (dir == ".data") {
        inText_ = false;
    } else if (dir == ".global") {
        // accepted and ignored
    } else if (dir == ".entry") {
        if (ops.size() != 1 || name(ops[0]).empty())
            asmError(line_, ".entry needs one label");
        entryLabel_ = name(ops[0]);
    } else if (dir == ".equ") {
        // .equ NAME, VALUE — an absolute symbol usable anywhere a
        // symbol operand is (immediates, %hi/%lo, .word).
        if (ops.size() != 2 || name(ops[0]).empty() || !isInt(ops[1]))
            asmError(line_, ".equ needs a name and an integer");
        auto [it, fresh] =
            prog_.symbols.try_emplace(std::string(name(ops[0])));
        if (!fresh)
            asmError(line_, "duplicate symbol " + quoted(ops[0]));
        it->second = static_cast<Addr>(intValue(ops[1]));
    } else if (dir == ".loopbound") {
        const std::int64_t n = oneInt();
        if (n < 1)
            asmError(line_, ".loopbound must be at least 1");
        pendingLoopBound_ = static_cast<std::uint64_t>(n);
    } else if (dir == ".subtask") {
        pendingSubtask_ = static_cast<int>(oneInt());
    } else if (dir == ".space") {
        if (inText_)
            asmError(line_, ".space only allowed in .data");
        const std::int64_t n = oneInt();
        // The segment has to fit the 32-bit address space.
        const std::uint64_t room = (std::uint64_t{1} << 32) - prog_.dataBase;
        if (n < 0 || prog_.data.size() + static_cast<std::uint64_t>(n) > room)
            asmError(line_, ".space size out of range");
        prog_.data.resize(prog_.data.size() + static_cast<std::size_t>(n));
    } else if (dir == ".align") {
        const std::int64_t n = oneInt();
        if (n < 0 || n > maxAlignLog2)
            asmError(line_, ".align exponent out of range (0.." +
                                std::to_string(maxAlignLog2) + ")");
        const std::size_t align = std::size_t{1} << n;
        if (inText_) {
            while ((protos_.size() * 4) % align != 0)
                emit(ProtoInst{});
        } else {
            prog_.data.resize((prog_.data.size() + align - 1) & ~(align - 1));
        }
    } else {
        asmError(line_, "unknown directive " + quoted(dir));
    }
}

void
AsmBackend::dataValues(string_view dir, std::span<const AsmOperand> ops)
{
    auto put = [&](std::uint64_t v, int width) {
        for (int b = 0; b < width; ++b)
            prog_.data.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    };
    if (dir == ".ascii" || dir == ".asciz") {
        // The operand is everything between the first and last quote.
        const string_view rest = ops.size() == 1 ? name(ops[0]) : "";
        const auto first = rest.find('"');
        const auto last = rest.rfind('"');
        if (first == string_view::npos || last <= first)
            asmError(line_, std::string(dir) +
                                " needs a double-quoted string");
        const string_view text = rest.substr(first + 1, last - first - 1);
        for (std::size_t i = 0; i < text.size(); ++i) {
            char c = text[i];
            if (c == '\\' && i + 1 < text.size()) {
                char e = text[++i];
                c = e == 'n' ? '\n' : e == 't' ? '\t' : e == '0' ? '\0'
                                                                 : e;
            }
            prog_.data.push_back(static_cast<std::uint8_t>(c));
        }
        if (dir == ".asciz")
            prog_.data.push_back(0);
        return;
    }
    const int width = dir == ".word" ? 4 : dir == ".half" ? 2 : 1;
    for (const AsmOperand &op : ops) {
        if (dir == ".double") {
            std::string tok;
            appendOperand(tok, op);
            double d;
            try {
                d = std::stod(tok);
            } catch (...) {
                asmError(line_, "bad double literal " + quoted(tok));
            }
            std::uint64_t bits;
            std::memcpy(&bits, &d, 8);
            put(bits, 8);
        } else if (isInt(op)) {
            put(static_cast<std::uint64_t>(intValue(op)), width);
        } else {
            if (width != 4)
                asmError(line_, "symbol data must be .word");
            dataFixups_.push_back({prog_.data.size(), imm(op), line_});
            put(0, 4);
        }
    }
}

void
AsmBackend::fillOperands(ProtoInst &p, string_view roles,
                         std::span<const AsmOperand> ops)
{
    for (std::size_t k = 0; k < roles.size(); ++k) {
        const AsmOperand &op = ops[k];
        switch (roles[k]) {
          case 'd': p.rd = static_cast<std::uint8_t>(reg(op, false)); break;
          case 's': p.rs = static_cast<std::uint8_t>(reg(op, false)); break;
          case 't': p.rt = static_cast<std::uint8_t>(reg(op, false)); break;
          case 'D': p.rd = static_cast<std::uint8_t>(reg(op, true)); break;
          case 'S': p.rs = static_cast<std::uint8_t>(reg(op, true)); break;
          case 'T': p.rt = static_cast<std::uint8_t>(reg(op, true)); break;
          case 'i': p.imm = imm(op); break;
          case 'm': {
            if (op.kind == AsmOperand::Memory) {
                if (op.reg >= 32)
                    asmError(line_, "bad base register in " + quoted(op));
                p.rs = op.reg;
                p.imm = {ImmSpec::Literal, op.value, {}};
                break;
            }
            const string_view tok = op.text;
            const auto open = tok.rfind('(');
            if (op.kind != AsmOperand::Token || open == string_view::npos ||
                tok.back() != ')')
                asmError(line_, "bad memory operand " + quoted(op));
            const Reg base =
                parseReg(tok.substr(open + 1, tok.size() - open - 2));
            if (base.index < 0 || base.fp)
                asmError(line_, "bad base register in " + quoted(tok));
            p.rs = static_cast<std::uint8_t>(base.index);
            p.imm = open == 0
                ? ImmSpec{ImmSpec::Literal, 0, {}}
                : imm(AsmOperand::token(tok.substr(0, open)));
            break;
          }
        }
    }
}

void
AsmBackend::instruction(string_view mnem, std::span<const AsmOperand> ops)
{
    const Mnemonic *m = findMnemonic(mnem);
    if (!m)
        asmError(line_, "unknown mnemonic " + quoted(mnem));
    ProtoInst p;
    p.op = m->op;
    string_view roles = m->roles;
    if (m->form == Form::Jalr && ops.size() == 1) {
        p.rd = reg::ra;
        roles = "s";
    }
    if (ops.size() != roles.size())
        asmError(line_, std::string(mnem) + " expects " +
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
            asmError(line_, "subi needs a literal");
        // Wraps like the two's-complement machine for INT64_MIN.
        p.imm.value = static_cast<std::int64_t>(
            0 - static_cast<std::uint64_t>(p.imm.value));
        emit(p);
        break;
      case Form::Li: {
        const auto rd = static_cast<std::uint8_t>(reg(ops[0], false));
        if (!isInt(ops[1]))
            asmError(line_, "li needs a literal (use la for symbols)");
        const std::int64_t v = intValue(ops[1]);
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
        const auto rd = static_cast<std::uint8_t>(reg(ops[0], false));
        ImmSpec s = imm(ops[1]);
        if (s.kind != ImmSpec::Symbol)
            asmError(line_, "la needs a symbol operand");
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
        cmp.rs = static_cast<std::uint8_t>(reg(ops[swap ? 1 : 0], false));
        cmp.rt = static_cast<std::uint8_t>(reg(ops[swap ? 0 : 1], false));
        emit(cmp);
        p.rs = reg::at;
        p.rt = reg::zero;
        p.imm = imm(ops[2]);
        emit(p);
        break;
      }
    }
}

std::int64_t
AsmBackend::resolve(const ImmSpec &s, int line) const
{
    if (s.kind == ImmSpec::None || s.kind == ImmSpec::Literal)
        return s.value;
    auto it = prog_.symbols.find(std::string(s.symbol));
    if (it == prog_.symbols.end())
        asmError(line, "undefined symbol " + quoted(s.symbol));
    const std::int64_t addr = it->second + s.value;
    if (s.kind == ImmSpec::SymbolHi)
        return addr >> 16;
    if (s.kind == ImmSpec::SymbolLo)
        return addr & 0xFFFF;
    return addr;
}

Program
AsmBackend::finish()
{
    if (protos_.empty())
        fatal("assembler: empty program");

    prog_.text.reserve(protos_.size());
    prog_.words.reserve(protos_.size());
    for (std::size_t i = 0; i < protos_.size(); ++i) {
        const ProtoInst &p = protos_[i];
        Addr pc = prog_.textBase + static_cast<Addr>(i * 4);
        Instruction inst;
        inst.op = p.op;
        inst.rd = p.rd;
        inst.rs = p.rs;
        inst.rt = p.rt;
        const std::int64_t v = resolve(p.imm, p.line);
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
        prog_.text.push_back(inst);
        prog_.words.push_back(encode(inst, pc));
    }

    for (const auto &fix : dataFixups_) {
        const auto v = static_cast<Word>(resolve(fix.imm, fix.line));
        for (int b = 0; b < 4; ++b)
            prog_.data[fix.offset + static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>((v >> (8 * b)) & 0xFF);
    }

    if (!entryLabel_.empty())
        prog_.entry = static_cast<Addr>(
            resolve({ImmSpec::Symbol, 0, entryLabel_}, 0));
    return std::move(prog_);
}

} // namespace visa
