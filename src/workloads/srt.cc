/**
 * @file
 * srt: bubblesort with an early-exit "sorted" flag (C-lab "srt").
 * The pass loop is peeled into 10 sub-tasks. Sorting is in place, so
 * sub-task 1 first copies the pristine master into the working array
 * (a periodic task receives fresh input each period).
 *
 * This benchmark is the paper's WCET stress case (Table 3 reports a
 * 2.0x over-estimate): worst-case analysis must assume every
 * data-dependent swap happens and that the early exit never triggers,
 * while the actual run swaps about half the time and passes shrink.
 */

#include "workloads/clab.hh"

#include <algorithm>

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int srtN = 80;
constexpr int srtSubtasks = 10;

std::vector<std::int32_t>
srtInput()
{
    Lcg lcg(0x5047);
    std::vector<std::int32_t> v(srtN);
    for (auto &x : v)
        x = lcg.range(-30000, 30000);
    return v;
}

Word
srtGolden(std::vector<std::int32_t> v)
{
    std::sort(v.begin(), v.end());
    Word ck = 0;
    for (int i = 0; i < srtN; ++i)
        ck += static_cast<Word>(v[static_cast<std::size_t>(i)]) ^
              static_cast<Word>(i);
    return ck;
}

} // anonymous namespace

Workload
makeSrt()
{
    auto input = srtInput();

    AsmBuilder bld;
    bld.ins(".text");
    int pass = 0;
    const int total_passes = srtN - 1;
    for (int s = 0; s < srtSubtasks; ++s) {
        const int passes =
            (total_passes - pass) / (srtSubtasks - s);
        const int p0 = pass;
        const int p1 = pass + passes;
        pass = p1;
        bld.subtaskBegin(s + 1);
        if (s == 0) {
            // Fresh input: copy the master into the working array.
            bld.ins("li r21, 0");    // sorted flag
            bld.ins("la r5, srtMaster");
            bld.ins("la r6, srtWork");
            bld.ins("li r10, %d", srtN);
            bld.label("srt_copy");
            bld.ins("lw r4, 0(r5)");
            bld.ins("sw r4, 0(r6)");
            bld.ins("addi r5, r5, 4");
            bld.ins("addi r6, r6, 4");
            bld.ins("subi r10, r10, 1");
            bld.ins(".loopbound %d", srtN);
            bld.ins("bgtz r10, srt_copy");
        }
        bld.ins("li r2, %d", p0);    // global pass index
        bld.label("srt_pass_" + std::to_string(s));
        bld.ins("bne r21, r0, srt_passdone_%d", s);    // already sorted
        bld.ins("la r5, srtWork");
        bld.ins("li r9, 0");                 // swapped flag
        bld.ins("li r6, %d", srtN - 1);
        bld.ins("sub r6, r6, r2");           // compares this pass
        bld.label("srt_j_" + std::to_string(s));
        bld.ins("lw r10, 0(r5)");
        bld.ins("lw r11, 4(r5)");
        bld.ins("slt r4, r11, r10");
        bld.ins("beq r4, r0, srt_noswap_%d", s);
        bld.ins("sw r11, 0(r5)");
        bld.ins("sw r10, 4(r5)");
        bld.ins("li r9, 1");
        bld.label("srt_noswap_" + std::to_string(s));
        bld.ins("addi r5, r5, 4");
        bld.ins("subi r6, r6, 1");
        bld.ins(".loopbound %d", srtN - 1);
        bld.ins("bgtz r6, srt_j_%d", s);
        bld.ins("bne r9, r0, srt_passdone_%d", s);
        bld.ins("li r21, 1");                // no swaps: sorted
        bld.label("srt_passdone_" + std::to_string(s));
        bld.ins("addi r2, r2, 1");
        bld.ins("slti r4, r2, %d", p1);
        bld.ins(".loopbound %d", passes);
        bld.ins("bne r4, r0, srt_pass_%d", s);
    }
    // Checksum scan in the final sub-task's tail.
    bld.ins("li r24, 0");
    bld.ins("la r5, srtWork");
    bld.ins("li r2, 0");
    bld.label("srt_ck");
    bld.ins("lw r4, 0(r5)");
    bld.ins("xor r4, r4, r2");
    bld.ins("add r24, r24, r4");
    bld.ins("addi r5, r5, 4");
    bld.ins("addi r2, r2, 1");
    bld.ins("slti r4, r2, %d", srtN);
    bld.ins(".loopbound %d", srtN);
    bld.ins("bne r4, r0, srt_ck");
    bld.taskEnd(24);

    bld.beginData();
    bld.words("srtMaster", input);
    bld.space("srtWork", srtN * 4);

    Workload w;
    w.name = "srt";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = srtGolden(input);
    return w;
}

} // namespace visa
