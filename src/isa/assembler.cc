#include "isa/assembler.hh"

#include <string_view>
#include <vector>

#include "isa/asm_backend.hh"

namespace visa
{

namespace
{

using std::string_view;

// Character classes of the "C" locale, without the locale lookup.
constexpr bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr bool
isLabelChar(char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z') || c == '_' || c == '.';
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
 * Turn one source line into back-end calls: each leading label, then
 * the statement's head and operand tokens (@p ops is scratch space).
 */
void
processLine(AsmBackend &be, string_view line, std::vector<AsmOperand> &ops)
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
        be.label(line.substr(0, j));
        line.remove_prefix(j + 1);
    }
    // Statement: a head token, then its operands.
    std::size_t h = 0;
    while (h < line.size() && !isSpace(line[h]))
        ++h;
    if (h == 0)
        return;
    const string_view head = line.substr(0, h);
    string_view rest = line.substr(h);
    ops.clear();
    if (head == ".ascii" || head == ".asciz") {
        // A quoted string may hold commas and spaces: pass it whole.
        ops.push_back(AsmOperand::token(rest));
    } else {
        for (string_view tok = nextToken(rest); !tok.empty();
             tok = nextToken(rest))
            ops.push_back(AsmOperand::token(tok));
    }
    be.statement(head, ops);
}

} // anonymous namespace

Program
assemble(const std::string &source, Addr text_base, Addr data_base)
{
    AsmBackend be(text_base, data_base);
    std::vector<AsmOperand> ops;
    string_view rest = source;
    for (int line = 1; !rest.empty(); ++line) {
        const std::size_t nl = rest.find('\n');
        be.setLine(line);
        processLine(be, rest.substr(0, nl), ops);
        rest.remove_prefix(nl == string_view::npos ? rest.size() : nl + 1);
    }
    return be.finish();
}

} // namespace visa
