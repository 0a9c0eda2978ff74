/**
 * @file
 * fir: integer FIR filter, 32 taps over 320 samples (C-lab "fir").
 * The sample loop is peeled into 8 sub-tasks; outputs are written to a
 * result buffer and folded into the checksum. Extended-suite
 * benchmark.
 */

#include "workloads/clab.hh"

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int firTaps = 32;
constexpr int firSamples = 320;
constexpr int firSubtasks = 8;
constexpr int firChunk = firSamples / firSubtasks;

std::vector<std::int32_t>
firSignal(std::uint32_t seed, int n, int lo, int hi)
{
    Lcg lcg(seed);
    std::vector<std::int32_t> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = lcg.range(lo, hi);
    return v;
}

Word
firGolden(const std::vector<std::int32_t> &x,
          const std::vector<std::int32_t> &h)
{
    Word ck = 0;
    for (int i = 0; i < firSamples; ++i) {
        Word acc = 0;
        for (int k = 0; k < firTaps; ++k) {
            acc += static_cast<Word>(x[static_cast<std::size_t>(i + k)]) *
                   static_cast<Word>(h[static_cast<std::size_t>(k)]);
        }
        Word y = static_cast<Word>(
            static_cast<std::int32_t>(acc) >> 6);
        ck += y;
    }
    return ck;
}

} // anonymous namespace

Workload
makeFir()
{
    auto x = firSignal(0xF14, firSamples + firTaps, -2000, 2000);
    auto h = firSignal(0x7A9, firTaps, -64, 64);

    AsmBuilder bld;
    bld.ins(".text");
    for (int s = 0; s < firSubtasks; ++s) {
        bld.subtaskBegin(s + 1);
        if (s == 0) {
            bld.ins("li r24, 0");      // checksum
            bld.ins("li r3, 0");       // global sample index
            bld.ins("la r20, firOut");
        }
        bld.ins("li r2, %d", firChunk);
        bld.label("fir_s_" + std::to_string(s));
        bld.ins("la r5, firH");
        bld.ins("la r6, firX");
        bld.ins("sll r4, r3, 2");
        bld.ins("add r6, r6, r4");     // &x[i]
        bld.ins("li r9, 0");           // acc
        bld.ins("li r10, %d", firTaps);
        bld.label("fir_tap_" + std::to_string(s));
        bld.ins("lw r11, 0(r6)");
        bld.ins("lw r12, 0(r5)");
        bld.ins("mul r11, r11, r12");
        bld.ins("add r9, r9, r11");
        bld.ins("addi r5, r5, 4");
        bld.ins("addi r6, r6, 4");
        bld.ins("subi r10, r10, 1");
        bld.ins(".loopbound %d", firTaps);
        bld.ins("bgtz r10, fir_tap_%d", s);
        bld.ins("sra r9, r9, 6");      // scale
        bld.ins("sw r9, 0(r20)");
        bld.ins("add r24, r24, r9");
        bld.ins("addi r20, r20, 4");
        bld.ins("addi r3, r3, 1");
        bld.ins("subi r2, r2, 1");
        bld.ins(".loopbound %d", firChunk);
        bld.ins("bgtz r2, fir_s_%d", s);
    }
    bld.taskEnd(24);

    bld.beginData();
    bld.words("firX", x);
    bld.words("firH", h);
    bld.space("firOut", firSamples * 4);

    Workload w;
    w.name = "fir";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = firGolden(x, h);
    return w;
}

} // namespace visa
