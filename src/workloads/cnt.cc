/**
 * @file
 * cnt: count and sum the positive elements of a 64x64 integer matrix
 * (C-lab "cnt"). Five sub-tasks of 13/13/13/13/12 rows (Table 3 lists
 * 5 sub-tasks for cnt). The matrix is a read-only master. Checksum:
 * sum ^ (count << 16).
 */

#include "workloads/clab.hh"

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int cntN = 64;
constexpr int cntSubtasks = 5;

std::vector<std::int32_t>
cntMatrix()
{
    // The original C-lab cnt fills the matrix with rand()%25:
    // non-negative values, so the sign test is highly biased.
    Lcg lcg(0xC047);
    std::vector<std::int32_t> m(cntN * cntN);
    for (auto &v : m)
        v = lcg.range(0, 24);
    return m;
}

Word
cntGolden(const std::vector<std::int32_t> &m)
{
    Word sum = 0;
    Word count = 0;
    for (std::int32_t v : m) {
        if (v > 0) {
            sum += static_cast<Word>(v);
            ++count;
        }
    }
    return sum ^ (count << 16);
}

} // anonymous namespace

Workload
makeCnt()
{
    auto m = cntMatrix();

    AsmBuilder bld;
    bld.ins(".text");
    int row = 0;
    for (int s = 0; s < cntSubtasks; ++s) {
        const int rows =
            (cntN - row) / (cntSubtasks - s);    // 13,13,13,13,12
        const int row0 = row;
        const int row1 = row + rows;
        row = row1;
        bld.subtaskBegin(s + 1);
        if (s == 0) {
            bld.ins("li r22, 0");    // positive count
            bld.ins("li r23, 0");    // positive sum
        }
        bld.ins("li r2, %d", row0);
        bld.label("cnt_i_" + std::to_string(s));
        bld.ins("li r20, %d", cntN * 4);
        bld.ins("mul r4, r2, r20");
        bld.ins("la r5, cntM");
        bld.ins("add r5, r5, r4");    // &M[i][0]
        bld.ins("li r10, %d", cntN);
        bld.label("cnt_e_" + std::to_string(s));
        bld.ins("lw r4, 0(r5)");
        bld.ins("blez r4, cnt_skip_%d", s);
        bld.ins("add r23, r23, r4");
        bld.ins("addi r22, r22, 1");
        bld.label("cnt_skip_" + std::to_string(s));
        bld.ins("addi r5, r5, 4");
        bld.ins("subi r10, r10, 1");
        bld.ins(".loopbound %d", cntN);
        bld.ins("bgtz r10, cnt_e_%d", s);
        bld.ins("addi r2, r2, 1");
        bld.ins("slti r4, r2, %d", row1);
        bld.ins(".loopbound %d", rows);
        bld.ins("bne r4, r0, cnt_i_%d", s);
    }
    bld.ins("sll r24, r22, 16");
    bld.ins("xor r24, r23, r24");
    bld.taskEnd(24);

    bld.beginData();
    bld.words("cntM", m);

    Workload w;
    w.name = "cnt";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = cntGolden(m);
    return w;
}

} // namespace visa
