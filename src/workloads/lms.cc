/**
 * @file
 * lms: least-mean-squares adaptive FIR filter (C-lab "lms"). 32 taps,
 * 160 samples peeled into 10 sub-tasks of 16. Double-precision
 * arithmetic throughout; the weight vector is working state
 * re-initialized to zero each period. Checksum: the truncated sum of
 * the final weights scaled by 2^20 (identical operation order on the
 * host reference makes this bit-exact).
 */

#include "workloads/clab.hh"

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int lmsTaps = 32;
constexpr int lmsSamples = 160;
constexpr int lmsSubtasks = 10;
constexpr int lmsChunk = lmsSamples / lmsSubtasks;
constexpr double lmsMu = 0.002;

std::vector<double>
lmsSignal(std::uint32_t seed, int n)
{
    Lcg lcg(seed);
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = lcg.unit();
    return v;
}

Word
lmsGolden(const std::vector<double> &x, const std::vector<double> &d)
{
    double w[lmsTaps] = {};
    for (int i = 0; i < lmsSamples; ++i) {
        double y = 0.0;
        for (int k = 0; k < lmsTaps; ++k)
            y += w[k] * x[static_cast<std::size_t>(i + k)];
        double e = d[static_cast<std::size_t>(i)] - y;
        double mue = e * lmsMu;
        for (int k = 0; k < lmsTaps; ++k)
            w[k] += x[static_cast<std::size_t>(i + k)] * mue;
    }
    double sum = 0.0;
    for (int k = 0; k < lmsTaps; ++k)
        sum += w[k];
    return static_cast<Word>(
        static_cast<std::int32_t>(sum * 1048576.0));
}

} // anonymous namespace

Workload
makeLms()
{
    auto x = lmsSignal(0x115, lmsSamples + lmsTaps);
    auto d = lmsSignal(0xDE5, lmsSamples);

    AsmBuilder bld;
    bld.ins(".text");
    for (int s = 0; s < lmsSubtasks; ++s) {
        bld.subtaskBegin(s + 1);
        if (s == 0) {
            // Zero the weight vector (fresh adaptation each period).
            bld.ins("cvt.d.w f2, r0");
            bld.ins("la r5, lmsW");
            bld.ins("li r10, %d", lmsTaps);
            bld.label("lms_zero");
            bld.ins("sdc1 f2, 0(r5)");
            bld.ins("addi r5, r5, 8");
            bld.ins("subi r10, r10, 1");
            bld.ins(".loopbound %d", lmsTaps);
            bld.ins("bgtz r10, lms_zero");
            bld.ins("la r20, lmsMuV");
            bld.ins("ldc1 f2, 0(r20)");    // mu
            bld.ins("li r3, 0");           // global sample index
        }
        bld.ins("li r2, %d", lmsChunk);
        bld.label("lms_s_" + std::to_string(s));
        // FIR: y = sum w[k] * x[i+k]
        bld.ins("cvt.d.w f4, r0");
        bld.ins("la r5, lmsW");
        bld.ins("la r6, lmsX");
        bld.ins("sll r4, r3, 3");
        bld.ins("add r6, r6, r4");
        bld.ins("li r10, %d", lmsTaps);
        bld.label("lms_fir_" + std::to_string(s));
        bld.ins("ldc1 f8, 0(r5)");
        bld.ins("ldc1 f10, 0(r6)");
        bld.ins("mul.d f8, f8, f10");
        bld.ins("add.d f4, f4, f8");
        bld.ins("addi r5, r5, 8");
        bld.ins("addi r6, r6, 8");
        bld.ins("subi r10, r10, 1");
        bld.ins(".loopbound %d", lmsTaps);
        bld.ins("bgtz r10, lms_fir_%d", s);
        // e = d[i] - y; mue = e * mu
        bld.ins("la r7, lmsD");
        bld.ins("sll r4, r3, 3");
        bld.ins("add r7, r7, r4");
        bld.ins("ldc1 f6, 0(r7)");
        bld.ins("sub.d f6, f6, f4");
        bld.ins("mul.d f6, f6, f2");
        // w[k] += x[i+k] * mue
        bld.ins("la r5, lmsW");
        bld.ins("la r6, lmsX");
        bld.ins("sll r4, r3, 3");
        bld.ins("add r6, r6, r4");
        bld.ins("li r10, %d", lmsTaps);
        bld.label("lms_upd_" + std::to_string(s));
        bld.ins("ldc1 f10, 0(r6)");
        bld.ins("mul.d f10, f10, f6");
        bld.ins("ldc1 f8, 0(r5)");
        bld.ins("add.d f8, f8, f10");
        bld.ins("sdc1 f8, 0(r5)");
        bld.ins("addi r5, r5, 8");
        bld.ins("addi r6, r6, 8");
        bld.ins("subi r10, r10, 1");
        bld.ins(".loopbound %d", lmsTaps);
        bld.ins("bgtz r10, lms_upd_%d", s);
        bld.ins("addi r3, r3, 1");
        bld.ins("subi r2, r2, 1");
        bld.ins(".loopbound %d", lmsChunk);
        bld.ins("bgtz r2, lms_s_%d", s);
    }
    // Checksum: truncated scaled sum of the adapted weights.
    bld.ins("cvt.d.w f4, r0");
    bld.ins("la r5, lmsW");
    bld.ins("li r10, %d", lmsTaps);
    bld.label("lms_ck");
    bld.ins("ldc1 f8, 0(r5)");
    bld.ins("add.d f4, f4, f8");
    bld.ins("addi r5, r5, 8");
    bld.ins("subi r10, r10, 1");
    bld.ins(".loopbound %d", lmsTaps);
    bld.ins("bgtz r10, lms_ck");
    bld.ins("la r20, lmsScaleV");
    bld.ins("ldc1 f8, 0(r20)");
    bld.ins("mul.d f4, f4, f8");
    bld.ins("cvt.w.d r24, f4");
    bld.taskEnd(24);

    bld.beginData();
    bld.doubles("lmsX", x);
    bld.doubles("lmsD", d);
    bld.doubles("lmsMuV", {lmsMu});
    bld.doubles("lmsScaleV", {1048576.0});
    bld.space("lmsW", lmsTaps * 8);

    Workload w;
    w.name = "lms";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = lmsGolden(x, d);
    return w;
}

} // namespace visa
