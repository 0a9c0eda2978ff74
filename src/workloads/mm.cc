/**
 * @file
 * mm: integer matrix multiply C = A x B (C-lab "mm"/matmult). The
 * outermost row loop is peeled into 10 sub-tasks of 2 rows each
 * (paper §5.3). A and B are read-only masters; C is fully rewritten
 * each period. The checksum is the 32-bit wrapping sum of all C
 * elements.
 */

#include "workloads/clab.hh"

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int mmN = 20;
constexpr int mmSubtasks = 10;
constexpr int mmRowsPerSub = mmN / mmSubtasks;

std::vector<std::int32_t>
mmMatrix(std::uint32_t seed)
{
    Lcg lcg(seed);
    std::vector<std::int32_t> m(mmN * mmN);
    for (auto &v : m)
        v = lcg.range(-100, 100);
    return m;
}

Word
mmGolden(const std::vector<std::int32_t> &a,
         const std::vector<std::int32_t> &b)
{
    Word ck = 0;
    for (int i = 0; i < mmN; ++i) {
        for (int j = 0; j < mmN; ++j) {
            Word acc = 0;
            for (int k = 0; k < mmN; ++k) {
                acc += static_cast<Word>(a[i * mmN + k]) *
                       static_cast<Word>(b[k * mmN + j]);
            }
            ck += acc;
        }
    }
    return ck;
}

} // anonymous namespace

Workload
makeMm()
{
    auto a = mmMatrix(0xA11CE);
    auto b = mmMatrix(0xB0B);

    AsmBuilder bld;
    bld.ins(".text");
    for (int s = 0; s < mmSubtasks; ++s) {
        const int row0 = s * mmRowsPerSub;
        const int row1 = row0 + mmRowsPerSub;
        bld.subtaskBegin(s + 1);
        if (s == 0)
            bld.ins("li r24, 0");    // checksum accumulator
        bld.ins("li r2, %d", row0);
        bld.label("mm_i_" + std::to_string(s));
        bld.ins("li r20, %d", mmN * 4);
        bld.ins("mul r4, r2, r20");
        bld.ins("la r5, mmA");
        bld.ins("add r5, r5, r4");    // &A[i][0]
        bld.ins("la r6, mmC");
        bld.ins("add r6, r6, r4");    // &C[i][0]
        bld.ins("li r3, 0");          // j
        bld.label("mm_j_" + std::to_string(s));
        bld.ins("la r7, mmB");
        bld.ins("sll r4, r3, 2");
        bld.ins("add r7, r7, r4");    // &B[0][j]
        bld.ins("move r12, r5");      // &A[i][k]
        bld.ins("li r9, 0");          // acc
        bld.ins("li r10, %d", mmN);   // k counter
        bld.label("mm_k_" + std::to_string(s));
        bld.ins("lw r11, 0(r12)");
        bld.ins("lw r4, 0(r7)");
        bld.ins("mul r11, r11, r4");
        bld.ins("add r9, r9, r11");
        bld.ins("addi r12, r12, 4");
        bld.ins("addi r7, r7, %d", mmN * 4);
        bld.ins("subi r10, r10, 1");
        bld.ins(".loopbound %d", mmN);
        bld.ins("bgtz r10, mm_k_%d", s);
        bld.ins("sw r9, 0(r6)");
        bld.ins("add r24, r24, r9");
        bld.ins("addi r6, r6, 4");
        bld.ins("addi r3, r3, 1");
        bld.ins("slti r4, r3, %d", mmN);
        bld.ins(".loopbound %d", mmN);
        bld.ins("bne r4, r0, mm_j_%d", s);
        bld.ins("addi r2, r2, 1");
        bld.ins("slti r4, r2, %d", row1);
        bld.ins(".loopbound %d", mmRowsPerSub);
        bld.ins("bne r4, r0, mm_i_%d", s);
    }
    bld.taskEnd(24);

    bld.beginData();
    bld.words("mmA", a);
    bld.words("mmB", b);
    bld.space("mmC", mmN * mmN * 4);

    Workload w;
    w.name = "mm";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = mmGolden(a, b);
    return w;
}

} // namespace visa
