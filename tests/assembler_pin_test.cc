/**
 * @file
 * Assembler output pins: every program the repository assembles folds
 * into one digest, and a set of malformed inputs keeps its exact error
 * text. The assembler sits on the fuzz pipeline's hot path and is
 * tuned for speed; these pins make any behavioural drift visible as a
 * single failing number rather than a scatter of downstream timing or
 * checksum changes.
 *
 * On a deliberate change of assembler output, the failure message
 * prints the new digest to paste below.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "sim/logging.hh"
#include "verify/progen.hh"
#include "workloads/clab.hh"

#ifndef VISA_CORPUS_DIR
#error "VISA_CORPUS_DIR must point at tests/corpus"
#endif

namespace visa
{
namespace
{

/** FNV-1a over every field of a Program, in a fixed order. */
class ProgramDigest
{
  public:
    void
    fold(const Program &p)
    {
        u64(p.textBase);
        u64(p.dataBase);
        u64(p.entry);
        u64(p.text.size());
        for (const Instruction &i : p.text) {
            u64(static_cast<std::uint64_t>(i.op));
            u64(i.rd);
            u64(i.rs);
            u64(i.rt);
            u64(static_cast<std::uint32_t>(i.imm));
        }
        u64(p.words.size());
        for (Word w : p.words)
            u64(w);
        u64(p.data.size());
        bytes(p.data.data(), p.data.size());
        u64(p.symbols.size());
        for (const auto &[name, addr] : p.symbols) {
            u64(name.size());
            bytes(name.data(), name.size());
            u64(addr);
        }
        u64(p.loopBounds.size());
        for (const auto &[pc, bound] : p.loopBounds) {
            u64(pc);
            u64(bound);
        }
        u64(p.subtaskStarts.size());
        for (const auto &[pc, k] : p.subtaskStarts) {
            u64(pc);
            u64(static_cast<std::uint32_t>(k));
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }

    void
    u64(std::uint64_t v)
    {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        bytes(b, 8);
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Every mnemonic, pseudo-instruction, directive and operand form the
 * assembler accepts, including the less travelled ones no kernel uses
 * (aliases, %hi/%lo, symbol addends in code and data, octal and signed
 * hex literals, .equ, .ascii escapes, text-segment .align).
 */
constexpr const char *kEveryFormProgram = R"(
        .global main
        .entry main
        .equ  LIMIT, 0x20
        .equ  NEG, -0x10
helper: jr ra
main:   add r5, r3, r4
        sub r5, r3, r4
        mul r5, r3, r4
        div r5, r3, r4
        rem r5, r3, r4
        and r5, r3, r4
        or  r5, r3, r4
        xor r5, r3, r4
        nor r5, r3, r4
        slt r5, r3, r4
        sltu r5, r3, r4
        sllv r5, r3, r4
        srlv r5, r3, r4
        srav r5, r3, r4
        sll r5, r3, 31
        srl r5, r3, 0
        sra r5, r3, 010
        addi r5, r3, -32768
        andi r5, r3, 0xFFFF
        ori r5, r3, 0X7f
        xori r5, r3, +12
        slti r5, r3, -0x10
        sltiu r5, r3, LIMIT
        lui r5, %hi(tab)
        ori r5, r5, %lo(tab)
        lb  r6, 0(r5)
        lbu r6, 1(r5)
        lh  r6, -2(r5)
        lhu r6, (r5)
        lw  r6, %lo(tab)(r5)
        ldc1 f2, 8(r5)
        l.d f4, 16(sp)
        sb  r6, 3(gp)
        sh  r6, 4(fp)
        sw  r6, tab+8(zero)
        sdc1 f2, 8(r5)
        s.d f4, 16(sp)
        .subtask 1
Lb:     beq r5, r6, Lb
        bne r5, r6, Lf
        blez r5, Lb
        bgtz r5, Lf
        bltz r5, Lb
        bgez r5, Lf
        bc1t Lb
        bc1f Lf
Lf:     j   Lf+4
        jal helper
        jalr r7
        jalr r8, r7
        add.d f6, f2, f4
        sub.d f6, f2, f4
        mul.d f6, f2, f4
        div.d f6, f2, f4
        neg.d f6, f2
        abs.d f6, f2
        mov.d f6, f2
        cvt.d.w f6, r5
        cvt.w.d r5, f6
        c.eq.d f2, f4
        c.lt.d f2, f4
        c.le.d f2, f4
        li  r9, 42
        li  r9, -1
        li  r9, 0x12345678
        li  r9, 0x10000
        la  r9, tab+4
        move r10, r9
        b   Lf
        blt r9, r10, Lb
        bge r9, r10, Lb
        bgt r9, r10, Lb
        .loopbound 4
        ble r9, r10, Lb
        subi r9, r9, 3
        neg r9, r10
        not r9, r10
        .subtask 2
        .align 4
        nop
x1: x2: halt            # two labels on one line
        .data
tab:    .word 1, -2, 0x7FFFFFFF, tab, Lf+4, %hi(tab), NEG
        .half 0xBEEF, -1
        .byte 1,2,,3
        .align 3
dbl:    .double 0.5, -1.25e3, 3
str:    .ascii "a\tb\n\\\"q"
        .asciz "end\0x"
        .space 5
        .align 2
last:   .word LIMIT+1
)";

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> out;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(VISA_CORPUS_DIR))
        if (e.is_regular_file() && e.path().extension() == ".s")
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(AssemblerPin, EveryAssembledProgramMatchesThePinnedDigest)
{
    ProgramDigest d;
    d.fold(assemble(kEveryFormProgram));
    d.fold(assemble(kEveryFormProgram, 0x1000, 0x8000));

    for (const std::string &name : allWorkloadNames())
        d.fold(assemble(makeWorkload(name).source));

    const auto corpus = corpusFiles();
    ASSERT_GE(corpus.size(), 9u) << "corpus directory not found";
    for (const auto &path : corpus)
        d.fold(assemble(readFile(path)));

    using verify::GenProfile;
    for (GenProfile profile : {GenProfile::Alu, GenProfile::Branch,
                               GenProfile::Memory, GenProfile::Mixed}) {
        for (bool instrument : {false, true}) {
            verify::GenParams params;
            params.profile = profile;
            params.instrument = instrument;
            for (std::uint64_t seed = 1; seed <= 250; ++seed)
                d.fold(assemble(verify::generate(seed, params).source));
        }
    }

    EXPECT_EQ(d.value(), 0xc61ca0fb475270ceULL)
        << "assembler output changed; new digest 0x" << std::hex
        << d.value();
}

TEST(AssemblerPin, MalformedInputsKeepTheirErrorText)
{
    struct Case
    {
        const char *source;
        const char *message;
    };
    const Case cases[] = {
        {"bogus r1, r2\n halt",
         "assembler: line 1: unknown mnemonic 'bogus'"},
        {"nop\nj nowhere\n halt",
         "assembler: line 2: undefined symbol 'nowhere'"},
        {"a: nop\na: halt",
         "assembler: line 2: duplicate label 'a'"},
        {"nop\n\naddi r1, r0, 40000\n halt",
         "assembler: line 3: immediate out of signed-16 range"},
        {"sll r1, r2, 32\n halt",
         "assembler: line 1: shift amount out of range"},
        {"andi r1, r2, -1\n halt",
         "assembler: line 1: immediate out of unsigned-16 range"},
        {"add.d r1, r2, r3\n halt",
         "assembler: line 1: expected FP register, got 'r1'"},
        {"add f1, f2, f3\n halt",
         "assembler: line 1: expected integer register, got 'f1'"},
        {"add r1, r2, r32\n halt",
         "assembler: line 1: expected integer register, got 'r32'"},
        {"  # nothing\n",
         "assembler: empty program"},
        {".data\n add r1, r2, r3\n",
         "assembler: line 2: instruction in .data segment"},
        {"add r1, r2\n halt",
         "assembler: line 1: add expects 3 operands, got 2"},
        {"jalr r1, r2, r3\n halt",
         "assembler: line 1: jalr expects 2 operands, got 3"},
        {"halt\nnop r1",
         "assembler: line 2: nop expects 0 operands, got 1"},
        {"lw r1, 4[r2]\n halt",
         "assembler: line 1: bad memory operand '4[r2]'"},
        {"lw r1, 4(f2)\n halt",
         "assembler: line 1: bad base register in '4(f2)'"},
        {"li r1, sym\n halt",
         "assembler: line 1: li needs a literal (use la for symbols)"},
        {"la r1, 5\n halt",
         "assembler: line 1: la needs a symbol operand"},
        {"subi r1, r2, x\n halt",
         "assembler: line 1: subi needs a literal"},
        {"j x+abc\nx: halt",
         "assembler: line 1: bad integer literal 'abc'"},
        {"addi r1, r0, 0x1FFFFFFFFFFFFFFFF\n halt",
         "assembler: line 1: bad integer literal '0x1FFFFFFFFFFFFFFFF'"},
        {".bogus 3\n halt",
         "assembler: line 1: unknown directive '.bogus'"},
        {"halt\n .word 5",
         "assembler: line 2: .word only allowed in .data"},
        {".data\n .half x",
         "assembler: line 2: symbol data must be .word"},
        {".data\n .double 1.5, abc",
         "assembler: line 2: bad double literal 'abc'"},
        {".data\n .ascii abc",
         "assembler: line 2: .ascii needs a double-quoted string"},
        {".equ X\n halt",
         "assembler: line 1: .equ needs a name and an integer"},
        {"X: nop\n .equ X, 3\n halt",
         "assembler: line 2: duplicate symbol 'X'"},
        {".loopbound\n halt",
         "assembler: line 1: .loopbound needs one integer"},
        {".subtask x\n halt",
         "assembler: line 1: .subtask needs one integer"},
        {"halt\n.data\n .space\n",
         "assembler: line 3: .space needs one integer"},
        {".align x\n halt",
         "assembler: line 1: .align needs one integer"},
        {".entry\n halt",
         "assembler: line 1: .entry needs one label"},
        {".entry main\n halt",
         "assembler: line 0: undefined symbol 'main'"},
    };
    for (const Case &c : cases) {
        try {
            assemble(c.source);
            ADD_FAILURE() << "accepted: " << c.source;
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(), c.message) << "source: " << c.source;
        }
    }
}

} // anonymous namespace
} // namespace visa
