/**
 * @file
 * Assembler tests: labels, directives, pseudo-instructions, annotation
 * capture, data layout, and error reporting.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/assembler.hh"
#include "isa/encoding.hh"
#include "sim/logging.hh"

namespace visa
{
namespace
{

TEST(Assembler, MinimalProgram)
{
    Program p = assemble(R"(
        addi r4, r0, 42
        halt
    )");
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p.text[0].op, Opcode::ADDI);
    EXPECT_EQ(p.text[0].rd, 4);
    EXPECT_EQ(p.text[0].imm, 42);
    EXPECT_EQ(p.text[1].op, Opcode::HALT);
    EXPECT_EQ(p.entry, defaultTextBase);
}

TEST(Assembler, LabelsAndBranches)
{
    Program p = assemble(R"(
start:  addi r4, r0, 10
loop:   subi r4, r4, 1
        bgtz r4, loop
        halt
    )");
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p.symbol("start"), defaultTextBase);
    EXPECT_EQ(p.symbol("loop"), defaultTextBase + 4);
    const Instruction &b = p.text[2];
    EXPECT_EQ(b.op, Opcode::BGTZ);
    EXPECT_EQ(static_cast<Addr>(b.imm), p.symbol("loop"));
}

TEST(Assembler, EncodedWordsRoundTrip)
{
    Program p = assemble(R"(
        addi r4, r0, 10
loop:   subi r4, r4, 1
        bgtz r4, loop
        halt
    )");
    for (std::size_t i = 0; i < p.size(); ++i) {
        Addr pc = p.textBase + static_cast<Addr>(i * 4);
        EXPECT_EQ(decode(p.words[i], pc), p.text[i]) << "at index " << i;
    }
}

TEST(Assembler, DataDirectives)
{
    Program p = assemble(R"(
        .data
a:      .word 1, 2, -3
b:      .half 4, 5
c:      .byte 6
        .align 3
d:      .double 1.5
e:      .space 16
f:      .word a
        .text
        halt
    )");
    EXPECT_EQ(p.symbol("a"), defaultDataBase);
    EXPECT_EQ(p.symbol("b"), defaultDataBase + 12);
    EXPECT_EQ(p.symbol("c"), defaultDataBase + 16);
    EXPECT_EQ(p.symbol("d") % 8, 0u);

    // .word little-endian
    EXPECT_EQ(p.data[0], 1);
    EXPECT_EQ(p.data[4], 2);
    // -3 sign bytes
    EXPECT_EQ(p.data[8], 0xFD);
    EXPECT_EQ(p.data[11], 0xFF);

    // .double 1.5 = 0x3FF8000000000000
    std::size_t off = p.symbol("d") - p.dataBase;
    EXPECT_EQ(p.data[off + 7], 0x3F);
    EXPECT_EQ(p.data[off + 6], 0xF8);

    // .word with a symbol operand resolves to its address
    off = p.symbol("f") - p.dataBase;
    Word v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p.data[off + static_cast<std::size_t>(i)];
    EXPECT_EQ(v, p.symbol("a"));
}

TEST(Assembler, HiLoInDataWordsStoreTheHalves)
{
    // .word resolves %hi/%lo exactly as an instruction immediate does.
    Program p = assemble(R"(
        lui r1, %hi(tab)
        halt
        .data
tab:    .word %hi(tab), %lo(tab), tab
    )");
    ASSERT_EQ(p.symbol("tab"), 0x10000000u);
    EXPECT_EQ(p.text[0].imm, 0x1000);
    auto word = [&](std::size_t i) {
        Word v = 0;
        for (int b = 3; b >= 0; --b)
            v = (v << 8) | p.data[4 * i + static_cast<std::size_t>(b)];
        return v;
    };
    EXPECT_EQ(word(0), 0x1000u);
    EXPECT_EQ(word(1), 0x0000u);
    EXPECT_EQ(word(2), 0x10000000u);
}

TEST(Assembler, PseudoLi)
{
    Program p = assemble(R"(
        li r4, 42
        li r5, -5
        li r6, 0x12345678
        li r7, 0x10000
        halt
    )");
    // small -> addi; big -> lui+ori; 0x10000 -> lui only
    EXPECT_EQ(p.text[0].op, Opcode::ADDI);
    EXPECT_EQ(p.text[1].op, Opcode::ADDI);
    EXPECT_EQ(p.text[1].imm, -5);
    EXPECT_EQ(p.text[2].op, Opcode::LUI);
    EXPECT_EQ(p.text[2].imm, 0x1234);
    EXPECT_EQ(p.text[3].op, Opcode::ORI);
    EXPECT_EQ(p.text[3].imm, 0x5678);
    EXPECT_EQ(p.text[4].op, Opcode::LUI);
    EXPECT_EQ(p.text[4].imm, 1);
    EXPECT_EQ(p.text[5].op, Opcode::HALT);
}

TEST(Assembler, PseudoLaResolvesDataSymbol)
{
    Program p = assemble(R"(
        la r4, buf
        lw r5, 4(r4)
        halt
        .data
        .space 8
buf:    .word 9, 10
    )");
    Addr buf = p.symbol("buf");
    EXPECT_EQ(p.text[0].op, Opcode::LUI);
    EXPECT_EQ(static_cast<Word>(p.text[0].imm), buf >> 16);
    EXPECT_EQ(p.text[1].op, Opcode::ORI);
    EXPECT_EQ(static_cast<Word>(p.text[1].imm), buf & 0xFFFF);
}

TEST(Assembler, PseudoCompareBranches)
{
    Program p = assemble(R"(
l:      blt r4, r5, l
        bge r4, r5, l
        bgt r4, r5, l
        ble r4, r5, l
        halt
    )");
    ASSERT_EQ(p.size(), 9u);
    EXPECT_EQ(p.text[0].op, Opcode::SLT);    // at = r4 < r5
    EXPECT_EQ(p.text[0].rd, reg::at);
    EXPECT_EQ(p.text[1].op, Opcode::BNE);
    EXPECT_EQ(p.text[2].op, Opcode::SLT);
    EXPECT_EQ(p.text[3].op, Opcode::BEQ);
    // bgt swaps operands
    EXPECT_EQ(p.text[4].rs, 5);
    EXPECT_EQ(p.text[4].rt, 4);
}

TEST(Assembler, LoopBoundAndSubtaskAnnotations)
{
    Program p = assemble(R"(
        .subtask 1
        addi r4, r0, 8
loop:   subi r4, r4, 1
        .loopbound 8
        bgtz r4, loop
        .subtask 2
        halt
    )");
    ASSERT_EQ(p.loopBounds.size(), 1u);
    Addr branch_pc = defaultTextBase + 8;
    EXPECT_EQ(p.loopBounds.at(branch_pc), 8u);
    EXPECT_EQ(p.subtaskStarts.at(defaultTextBase), 1);
    EXPECT_EQ(p.subtaskStarts.at(defaultTextBase + 12), 2);
}

TEST(Assembler, EntryDirective)
{
    Program p = assemble(R"(
        .entry main
helper: jr ra
main:   halt
    )");
    EXPECT_EQ(p.entry, p.symbol("main"));
}

TEST(Assembler, RegisterAliases)
{
    Program p = assemble(R"(
        move sp, ra
        addi gp, zero, 1
        halt
    )");
    EXPECT_EQ(p.text[0].rd, reg::sp);
    EXPECT_EQ(p.text[0].rs, reg::ra);
    EXPECT_EQ(p.text[1].rd, reg::gp);
}

TEST(Assembler, CommentsAndBlankLines)
{
    Program p = assemble(R"(
        # full-line comment
        addi r4, r0, 1   # trailing comment
        ; semicolon comment
        halt ; done
    )");
    EXPECT_EQ(p.size(), 2u);
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    EXPECT_THROW(assemble("bogus r1, r2\n halt"), FatalError);
}

TEST(AssemblerErrors, UndefinedSymbol)
{
    EXPECT_THROW(assemble("j nowhere\n halt"), FatalError);
}

TEST(AssemblerErrors, DuplicateLabel)
{
    EXPECT_THROW(assemble("a: nop\na: halt"), FatalError);
}

TEST(AssemblerErrors, ImmediateOverflow)
{
    EXPECT_THROW(assemble("addi r1, r0, 40000\n halt"), FatalError);
    EXPECT_THROW(assemble("sll r1, r2, 32\n halt"), FatalError);
    EXPECT_THROW(assemble("andi r1, r2, -1\n halt"), FatalError);
}

TEST(AssemblerErrors, WrongRegisterKind)
{
    EXPECT_THROW(assemble("add.d r1, r2, r3\n halt"), FatalError);
    EXPECT_THROW(assemble("add f1, f2, f3\n halt"), FatalError);
}

TEST(AssemblerErrors, EmptyProgram)
{
    EXPECT_THROW(assemble("  # nothing\n"), FatalError);
}

TEST(AssemblerErrors, InstructionInData)
{
    EXPECT_THROW(assemble(".data\n add r1, r2, r3\n"), FatalError);
}

/** @return the FatalError text assembling @p source raises ("" if none). */
std::string
errorOf(const std::string &source)
{
    try {
        assemble(source);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(AssemblerErrors, OutOfRangeRegisterIndex)
{
    EXPECT_EQ(errorOf("nop\nadd r1, r2, r99999999999\nhalt"),
              "assembler: line 2: expected integer register, got "
              "'r99999999999'");
    EXPECT_EQ(errorOf("add.d f1, f2, f4294967298\nhalt"),
              "assembler: line 1: expected FP register, got 'f4294967298'");
}

TEST(AssemblerErrors, SpaceSizeOutOfRange)
{
    EXPECT_EQ(errorOf("halt\n.data\nx: .space -1"),
              "assembler: line 3: .space size out of range");
    // Beyond the 32-bit address space above the data base.
    EXPECT_EQ(errorOf("halt\n.data\n.space 0x100000000"),
              "assembler: line 3: .space size out of range");
}

TEST(AssemblerErrors, LiteralsMustParseWhole)
{
    // A literal must parse whole: "09" is not octal, not 0.
    EXPECT_EQ(errorOf("li r1, 09\nhalt"),
              "assembler: line 1: bad integer literal '09'");
    EXPECT_EQ(errorOf("halt\n.data\n.word 1, 018"),
              "assembler: line 3: bad integer literal '018'");
    EXPECT_EQ(errorOf("j L+0x1G\nL: halt"),
              "assembler: line 1: bad integer literal '0x1G'");
    // Octal, hex and signed forms that parse whole keep their values.
    Program p = assemble("li r1, 010\nli r2, 0x10\nli r3, -010\n"
                         "li r4, 0\nli r5, -0x8000\nhalt");
    EXPECT_EQ(p.text[0].imm, 8);
    EXPECT_EQ(p.text[1].imm, 16);
    EXPECT_EQ(p.text[2].imm, -8);
    EXPECT_EQ(p.text[3].imm, 0);
    EXPECT_EQ(p.text[4].imm, -0x8000);
}

TEST(AssemblerErrors, LoopBoundAtLeastOne)
{
    EXPECT_EQ(errorOf("L: nop\n.loopbound -3\nbne r1, r0, L\nhalt"),
              "assembler: line 2: .loopbound must be at least 1");
    EXPECT_EQ(errorOf(".loopbound 0\nhalt"),
              "assembler: line 1: .loopbound must be at least 1");
    Program p = assemble("L: nop\n.loopbound 1\nbne r1, r0, L\nhalt");
    EXPECT_EQ(p.loopBounds.at(defaultTextBase + 4), 1u);
}

TEST(AssemblerErrors, AlignExponentBounded)
{
    for (const char *n : {"-1", "17", "40", "64"})
        EXPECT_EQ(errorOf(std::string("halt\n.align ") + n),
                  "assembler: line 2: .align exponent out of range (0..16)")
            << ".align " << n;
    Program p = assemble("halt\n.data\n.byte 1\n.align 16\nx: .byte 2");
    EXPECT_EQ(p.symbol("x"), defaultDataBase + 0x10000);
}

} // anonymous namespace
} // namespace visa
