/**
 * @file
 * jfdctint: JPEG forward 8x8 integer DCT (C-lab "jfdctint", the
 * Loeffler-Ligtenberg-Moshovitz algorithm with libjpeg's 13-bit
 * fixed-point constants), applied to 32 blocks. Two 1-D passes per
 * block (rows then columns), each a bounded 8-iteration loop. The
 * block loop is peeled into 8 sub-tasks of 4 blocks. Extended-suite
 * benchmark.
 */

#include "workloads/clab.hh"

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int dctBlocks = 32;
constexpr int dctSubtasks = 8;
constexpr int dctChunk = dctBlocks / dctSubtasks;

// libjpeg jfdctint.c FIX_* constants (13-bit fixed point).
constexpr std::int32_t kF0541 = 4433;     // FIX_0_541196100
constexpr std::int32_t kF0765 = 6270;     // FIX_0_765366865
constexpr std::int32_t kF1847 = 15137;    // FIX_1_847759065
constexpr std::int32_t kF1175 = 9633;     // FIX_1_175875602
constexpr std::int32_t kF0298 = 2446;     // FIX_0_298631336
constexpr std::int32_t kF2053 = 16819;    // FIX_2_053119869
constexpr std::int32_t kF3072 = 25172;    // FIX_3_072711026
constexpr std::int32_t kF1501 = 12299;    // FIX_1_501321110
constexpr std::int32_t kF0899 = 7373;     // FIX_0_899976223
constexpr std::int32_t kF2562 = 20995;    // FIX_2_562915447
constexpr std::int32_t kF1961 = 16069;    // FIX_1_961570560
constexpr std::int32_t kF0390 = 3196;     // FIX_0_390180644

std::int32_t
descale(std::int64_t x, int n)
{
    return static_cast<std::int32_t>((x + (1 << (n - 1))) >> n);
}

/** Host-side 1-D LLM pass (pass 1 = rows, pass 2 = columns). */
void
dct1d(std::int32_t *d, int stride, bool pass2)
{
    std::int32_t v[8];
    for (int i = 0; i < 8; ++i)
        v[i] = d[i * stride];
    std::int32_t tmp0 = v[0] + v[7], tmp7 = v[0] - v[7];
    std::int32_t tmp1 = v[1] + v[6], tmp6 = v[1] - v[6];
    std::int32_t tmp2 = v[2] + v[5], tmp5 = v[2] - v[5];
    std::int32_t tmp3 = v[3] + v[4], tmp4 = v[3] - v[4];

    std::int32_t tmp10 = tmp0 + tmp3, tmp13 = tmp0 - tmp3;
    std::int32_t tmp11 = tmp1 + tmp2, tmp12 = tmp1 - tmp2;

    std::int32_t out0, out4, out2, out6;
    if (!pass2) {
        out0 = (tmp10 + tmp11) << 2;
        out4 = (tmp10 - tmp11) << 2;
    } else {
        out0 = descale(tmp10 + tmp11, 2);
        out4 = descale(tmp10 - tmp11, 2);
    }
    std::int32_t z1e = (tmp12 + tmp13) * kF0541;
    int dshift = pass2 ? 15 : 11;
    out2 = descale(z1e + tmp13 * kF0765, dshift);
    out6 = descale(z1e - tmp12 * kF1847, dshift);

    std::int32_t z1 = tmp4 + tmp7, z2 = tmp5 + tmp6;
    std::int32_t z3 = tmp4 + tmp6, z4 = tmp5 + tmp7;
    std::int32_t z5 = (z3 + z4) * kF1175;
    std::int32_t t4 = tmp4 * kF0298, t5 = tmp5 * kF2053;
    std::int32_t t6 = tmp6 * kF3072, t7 = tmp7 * kF1501;
    z1 *= -kF0899;
    z2 *= -kF2562;
    z3 = z3 * -kF1961 + z5;
    z4 = z4 * -kF0390 + z5;

    d[0 * stride] = out0;
    d[4 * stride] = out4;
    d[2 * stride] = out2;
    d[6 * stride] = out6;
    d[7 * stride] = descale(t4 + z1 + z3, dshift);
    d[5 * stride] = descale(t5 + z2 + z4, dshift);
    d[3 * stride] = descale(t6 + z2 + z3, dshift);
    d[1 * stride] = descale(t7 + z1 + z4, dshift);
}

std::vector<std::int32_t>
dctInput()
{
    Lcg lcg(0xDC7);
    std::vector<std::int32_t> v(dctBlocks * 64);
    for (auto &x : v)
        x = lcg.range(-128, 127);
    return v;
}

Word
dctGolden(std::vector<std::int32_t> data)
{
    Word ck = 0;
    for (int b = 0; b < dctBlocks; ++b) {
        std::int32_t *blk = data.data() + b * 64;
        for (int r = 0; r < 8; ++r)
            dct1d(blk + r * 8, 1, false);
        for (int c = 0; c < 8; ++c)
            dct1d(blk + c, 8, true);
        for (int i = 0; i < 64; ++i)
            ck += static_cast<Word>(blk[i]);
    }
    return ck;
}

/**
 * Emit the 1-D LLM pass over the 8 elements at (r21 + i*stride_bytes).
 * Clobbers r2-r19; pass 2 changes the descale shifts.
 */
void
emit1d(AsmBuilder &b, const std::string &tag, int stride, bool pass2)
{
    auto mulc = [&](const char *dst, const char *src,
                    std::int32_t constant) {
        b.ins("li r2, %d", constant);
        b.ins("mul %s, %s, r2", dst, src);
    };
    auto desc = [&](const char *r, int n) {
        b.ins("addi %s, %s, %d", r, r, 1 << (n - 1));
        b.ins("sra %s, %s, %d", r, r, n);
    };
    const int dshift = pass2 ? 15 : 11;
    (void)tag;

    for (int i = 0; i < 8; ++i)
        b.ins("lw r%d, %d(r21)", 4 + i, i * stride);
    // butterflies
    b.ins("add r12, r4, r11");     // tmp0
    b.ins("sub r19, r4, r11");     // tmp7
    b.ins("add r13, r5, r10");     // tmp1
    b.ins("sub r18, r5, r10");     // tmp6
    b.ins("add r14, r6, r9");      // tmp2
    b.ins("sub r17, r6, r9");      // tmp5
    b.ins("add r15, r7, r8");      // tmp3
    b.ins("sub r16, r7, r8");      // tmp4
    // even part
    b.ins("add r4, r12, r15");     // tmp10
    b.ins("sub r5, r12, r15");     // tmp13
    b.ins("add r6, r13, r14");     // tmp11
    b.ins("sub r7, r13, r14");     // tmp12
    b.ins("add r8, r4, r6");       // out0 pre
    b.ins("sub r9, r4, r6");       // out4 pre
    if (!pass2) {
        b.ins("sll r8, r8, 2");
        b.ins("sll r9, r9, 2");
    } else {
        desc("r8", 2);
        desc("r9", 2);
    }
    b.ins("sw r8, %d(r21)", 0 * stride);
    b.ins("sw r9, %d(r21)", 4 * stride);
    b.ins("add r10, r7, r5");      // tmp12 + tmp13
    mulc("r10", "r10", kF0541);    // z1e
    mulc("r11", "r5", kF0765);
    b.ins("add r11, r10, r11");    // out2 pre
    desc("r11", dshift);
    b.ins("sw r11, %d(r21)", 2 * stride);
    mulc("r12", "r7", kF1847);
    b.ins("sub r12, r10, r12");    // out6 pre
    desc("r12", dshift);
    b.ins("sw r12, %d(r21)", 6 * stride);
    // odd part
    b.ins("add r4, r16, r19");     // z1
    b.ins("add r5, r17, r18");     // z2
    b.ins("add r6, r16, r18");     // z3
    b.ins("add r7, r17, r19");     // z4
    b.ins("add r8, r6, r7");
    mulc("r8", "r8", kF1175);      // z5
    mulc("r16", "r16", kF0298);    // t4
    mulc("r17", "r17", kF2053);    // t5
    mulc("r18", "r18", kF3072);    // t6
    mulc("r19", "r19", kF1501);    // t7
    mulc("r4", "r4", -kF0899);
    mulc("r5", "r5", -kF2562);
    mulc("r6", "r6", -kF1961);
    b.ins("add r6, r6, r8");       // z3 += z5
    mulc("r7", "r7", -kF0390);
    b.ins("add r7, r7, r8");       // z4 += z5
    b.ins("add r9, r16, r4");
    b.ins("add r9, r9, r6");       // out7 pre
    desc("r9", dshift);
    b.ins("sw r9, %d(r21)", 7 * stride);
    b.ins("add r9, r17, r5");
    b.ins("add r9, r9, r7");       // out5 pre
    desc("r9", dshift);
    b.ins("sw r9, %d(r21)", 5 * stride);
    b.ins("add r9, r18, r5");
    b.ins("add r9, r9, r6");       // out3 pre
    desc("r9", dshift);
    b.ins("sw r9, %d(r21)", 3 * stride);
    b.ins("add r9, r19, r4");
    b.ins("add r9, r9, r7");       // out1 pre
    desc("r9", dshift);
    b.ins("sw r9, %d(r21)", 1 * stride);
}

} // anonymous namespace

Workload
makeJfdctint()
{
    auto input = dctInput();

    AsmBuilder bld;
    bld.ins(".text");
    for (int s = 0; s < dctSubtasks; ++s) {
        bld.subtaskBegin(s + 1);
        if (s == 0) {
            bld.ins("li r24, 0");
            bld.ins("la r23, dctWork");
            bld.ins("la r22, dctMaster");
        }
        bld.ins("li r26, %d", dctChunk);    // blocks this sub-task
        bld.label("dct_blk_" + std::to_string(s));
        // Fresh input: copy this block from the master.
        bld.ins("li r20, 64");
        bld.ins("move r21, r23");
        bld.ins("move r27, r22");
        bld.label("dct_copy_" + std::to_string(s));
        bld.ins("lw r4, 0(r27)");
        bld.ins("sw r4, 0(r21)");
        bld.ins("addi r27, r27, 4");
        bld.ins("addi r21, r21, 4");
        bld.ins("subi r20, r20, 1");
        bld.ins(".loopbound 64");
        bld.ins("bgtz r20, dct_copy_%d", s);
        // Row pass: 8 rows, stride 1 word; row base advances 32 B.
        bld.ins("move r21, r23");
        bld.ins("li r20, 8");
        bld.label("dct_row_" + std::to_string(s));
        emit1d(bld, "r", 4, false);
        bld.ins("addi r21, r21, 32");
        bld.ins("subi r20, r20, 1");
        bld.ins(".loopbound 8");
        bld.ins("bgtz r20, dct_row_%d", s);
        // Column pass: 8 columns, stride 8 words; base advances 4 B.
        bld.ins("move r21, r23");
        bld.ins("li r20, 8");
        bld.label("dct_col_" + std::to_string(s));
        emit1d(bld, "c", 32, true);
        bld.ins("addi r21, r21, 4");
        bld.ins("subi r20, r20, 1");
        bld.ins(".loopbound 8");
        bld.ins("bgtz r20, dct_col_%d", s);
        // Fold the block's coefficients into the checksum.
        bld.ins("move r21, r23");
        bld.ins("li r20, 64");
        bld.label("dct_ck_" + std::to_string(s));
        bld.ins("lw r4, 0(r21)");
        bld.ins("add r24, r24, r4");
        bld.ins("addi r21, r21, 4");
        bld.ins("subi r20, r20, 1");
        bld.ins(".loopbound 64");
        bld.ins("bgtz r20, dct_ck_%d", s);
        // Next block.
        bld.ins("addi r22, r22, 256");
        bld.ins("subi r26, r26, 1");
        bld.ins(".loopbound %d", dctChunk);
        bld.ins("bgtz r26, dct_blk_%d", s);
    }
    bld.taskEnd(24);

    bld.beginData();
    bld.words("dctMaster", input);
    bld.space("dctWork", 64 * 4);

    Workload w;
    w.name = "jfdctint";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = dctGolden(input);
    return w;
}

} // namespace visa
