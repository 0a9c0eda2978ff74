/**
 * @file
 * Round trip of generated programs. progen builds each program through
 * the assembler's back end and renders its source text alongside; the
 * text front end must assemble that source into the very same program,
 * field by field, and the source bytes themselves stay pinned. A
 * divergence between the two producers of one back end, or any drift in
 * what progen prints, fails here with the seed that shows it. Malformed
 * typed statements must fail with the text front end's error text.
 *
 * On a deliberate change of generated source, the failure message
 * prints the new digest to paste below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "isa/assembler.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "verify/progen.hh"
#include "workloads/asm_builder.hh"

namespace visa
{
namespace
{

using verify::GenProfile;

constexpr GenProfile kProfiles[] = {GenProfile::Alu, GenProfile::Branch,
                                    GenProfile::Memory, GenProfile::Mixed};
constexpr std::uint64_t kSeeds = 250;

/** Every {profile, instrumented} parameter set the pins cover. */
std::vector<verify::GenParams>
paramSets()
{
    std::vector<verify::GenParams> out;
    for (GenProfile profile : kProfiles) {
        for (bool instrument : {false, true}) {
            verify::GenParams p;
            p.profile = profile;
            p.instrument = instrument;
            out.push_back(p);
        }
    }
    return out;
}

TEST(AssemblerRoundTrip, GeneratedProgramEqualsItsAssembledSource)
{
    for (const verify::GenParams &params : paramSets()) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            const verify::GeneratedProgram g = verify::generate(seed, params);
            const Program a = assemble(g.source);
            const Program &p = g.program;
            SCOPED_TRACE(::testing::Message()
                         << verify::profileName(params.profile)
                         << (params.instrument ? " instrumented" : " plain")
                         << " seed " << seed);
            ASSERT_EQ(p.textBase, a.textBase);
            ASSERT_EQ(p.dataBase, a.dataBase);
            ASSERT_EQ(p.entry, a.entry);
            ASSERT_EQ(p.text, a.text);
            ASSERT_EQ(p.words, a.words);
            ASSERT_EQ(p.data, a.data);
            ASSERT_EQ(p.symbols, a.symbols);
            ASSERT_EQ(p.loopBounds, a.loopBounds);
            ASSERT_EQ(p.subtaskStarts, a.subtaskStarts);
        }
    }
}

TEST(AssemblerRoundTrip, GeneratedSourceMatchesThePinnedDigest)
{
    test::Fnv1a h;
    for (const verify::GenParams &params : paramSets()) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            const std::string src = verify::generate(seed, params).source;
            h.u64(src.size());
            h.text(src);
        }
    }
    EXPECT_EQ(h.value(), 0x6a8898d61c9a07b8ULL)
        << "generated source changed; new digest 0x" << std::hex
        << h.value();
}

TEST(AssemblerRoundTrip, TypedStatementsFailWithTheTextErrors)
{
    // The back end owns operand roles and their error text for both of
    // its producers: a malformed typed statement fails in program()
    // exactly as its rendered source fails in assemble().
    using Op = AsmOperand;
    struct Case
    {
        std::string_view head;
        std::vector<Op> ops;
        const char *message;
    };
    const Case cases[] = {
        {"add", {Op::fpReg(1), Op::intReg(2), Op::intReg(3)},
         "assembler: line 1: expected integer register, got 'f1'"},
        {"add.d", {Op::fpReg(1), Op::intReg(2), Op::fpReg(3)},
         "assembler: line 1: expected FP register, got 'r2'"},
        {"add", {Op::intReg(1), Op::intReg(2)},
         "assembler: line 1: add expects 3 operands, got 2"},
        {"lw", {Op::intReg(1), Op::imm(4)},
         "assembler: line 1: bad memory operand '4'"},
        {"li", {Op::intReg(1), Op::sym("x")},
         "assembler: line 1: li needs a literal (use la for symbols)"},
        {"la", {Op::intReg(1), Op::imm(5)},
         "assembler: line 1: la needs a symbol operand"},
        {"subi", {Op::intReg(1), Op::intReg(2), Op::sym("x")},
         "assembler: line 1: subi needs a literal"},
        {"addi", {Op::intReg(1), Op::intReg(0), Op::imm(40000)},
         "assembler: line 1: immediate out of signed-16 range"},
        {"andi", {Op::intReg(1), Op::intReg(2), Op::hexImm(0x10000)},
         "assembler: line 1: immediate out of unsigned-16 range"},
        {"j", {Op::sym("nowhere")},
         "assembler: line 1: undefined symbol 'nowhere'"},
        {"bogus", {Op::intReg(1)},
         "assembler: line 1: unknown mnemonic 'bogus'"},
        {".word", {Op::imm(5)},
         "assembler: line 1: .word only allowed in .data"},
        {".loopbound", {Op::imm(0)},
         "assembler: line 1: .loopbound must be at least 1"},
        {".subtask", {Op::sym("x")},
         "assembler: line 1: .subtask needs one integer"},
    };
    for (const Case &c : cases) {
        AsmBuilder b;
        b.inst(c.head, c.ops);
        b.inst("halt");
        b.beginData();
        const std::string source = b.finish();
        SCOPED_TRACE(source);
        for (int producer = 0; producer < 2; ++producer) {
            try {
                if (producer == 0)
                    b.program();
                else
                    assemble(source);
                ADD_FAILURE() << (producer == 0 ? "program()" : "assemble()")
                              << " accepted it";
            } catch (const FatalError &e) {
                EXPECT_STREQ(e.what(), c.message);
            }
        }
    }
}

} // anonymous namespace
} // namespace visa
