/**
 * @file
 * fft: 256-point iterative radix-2 complex FFT (C-lab "fft").
 * Sub-task structure (10, matching Table 3): bit-reversal copy, the
 * eight butterfly stages, and a Parseval-style checksum scan. Twiddle
 * factors and bit-reversal offsets are precomputed constant tables,
 * as a hard real-time implementation would ship them. Checksum:
 * trunc(sum re^2 + im^2) — the host reference performs the identical
 * double-precision operation sequence, so the value is bit-exact.
 */

#include "workloads/clab.hh"

#include <cmath>

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int fftN = 256;
constexpr int fftStages = 8;

std::vector<double>
fftInput()
{
    Lcg lcg(0xFF7);
    std::vector<double> v(fftN);
    for (auto &x : v)
        x = lcg.unit();
    return v;
}

std::vector<std::int32_t>
fftBrevOffsets()
{
    std::vector<std::int32_t> t(fftN);
    for (int i = 0; i < fftN; ++i) {
        int r = 0;
        for (int b = 0; b < 8; ++b)
            if (i & (1 << b))
                r |= 1 << (7 - b);
        t[static_cast<std::size_t>(i)] = r * 8;    // byte offset
    }
    return t;
}

void
fftTwiddles(int stage, std::vector<double> &wr, std::vector<double> &wi)
{
    const int m = 1 << stage;
    const int half = m / 2;
    wr.resize(static_cast<std::size_t>(half));
    wi.resize(static_cast<std::size_t>(half));
    for (int j = 0; j < half; ++j) {
        double ang = -2.0 * M_PI * j / m;
        wr[static_cast<std::size_t>(j)] = std::cos(ang);
        wi[static_cast<std::size_t>(j)] = std::sin(ang);
    }
}

Word
fftGolden(const std::vector<double> &in)
{
    std::vector<double> re(fftN), im(fftN, 0.0);
    auto brev = fftBrevOffsets();
    for (int i = 0; i < fftN; ++i)
        re[static_cast<std::size_t>(i)] =
            in[static_cast<std::size_t>(brev[static_cast<std::size_t>(i)] /
                                        8)];
    for (int s = 1; s <= fftStages; ++s) {
        std::vector<double> wr, wi;
        fftTwiddles(s, wr, wi);
        const int m = 1 << s;
        const int half = m / 2;
        for (int k = 0; k < fftN; k += m) {
            for (int j = 0; j < half; ++j) {
                const std::size_t lo =
                    static_cast<std::size_t>(k + j);
                const std::size_t hi = lo +
                                       static_cast<std::size_t>(half);
                double tr = wr[static_cast<std::size_t>(j)] * re[hi] -
                            wi[static_cast<std::size_t>(j)] * im[hi];
                double ti = wr[static_cast<std::size_t>(j)] * im[hi] +
                            wi[static_cast<std::size_t>(j)] * re[hi];
                double ur = re[lo];
                double ui = im[lo];
                re[hi] = ur - tr;
                im[hi] = ui - ti;
                re[lo] = ur + tr;
                im[lo] = ui + ti;
            }
        }
    }
    double acc = 0.0;
    for (int i = 0; i < fftN; ++i) {
        acc += re[static_cast<std::size_t>(i)] *
               re[static_cast<std::size_t>(i)];
        acc += im[static_cast<std::size_t>(i)] *
               im[static_cast<std::size_t>(i)];
    }
    return static_cast<Word>(static_cast<std::int32_t>(acc));
}

} // anonymous namespace

Workload
makeFft()
{
    auto input = fftInput();
    auto brev = fftBrevOffsets();

    AsmBuilder bld;
    bld.ins(".text");

    // Sub-task 1: bit-reversal copy from the pristine input; zero the
    // imaginary parts.
    bld.subtaskBegin(1);
    bld.ins("li r2, 0");
    bld.ins("la r5, fftBrev");
    bld.ins("la r6, fftRe");
    bld.ins("la r7, fftIm");
    bld.ins("la r8, fftInRe");
    bld.ins("cvt.d.w f2, r0");
    bld.label("fft_rev");
    bld.ins("lw r4, 0(r5)");
    bld.ins("add r9, r8, r4");
    bld.ins("ldc1 f4, 0(r9)");
    bld.ins("sdc1 f4, 0(r6)");
    bld.ins("sdc1 f2, 0(r7)");
    bld.ins("addi r5, r5, 4");
    bld.ins("addi r6, r6, 8");
    bld.ins("addi r7, r7, 8");
    bld.ins("addi r2, r2, 1");
    bld.ins("slti r4, r2, %d", fftN);
    bld.ins(".loopbound %d", fftN);
    bld.ins("bne r4, r0, fft_rev");

    // Sub-tasks 2..9: one butterfly stage each.
    for (int s = 1; s <= fftStages; ++s) {
        const int m = 1 << s;
        const int half = m / 2;
        const int groups = fftN / m;
        const int hioff = half * 8;
        bld.subtaskBegin(s + 1);
        bld.ins("li r2, 0");    // group base, byte offset
        bld.label("fft_grp_" + std::to_string(s));
        bld.ins("la r7, fftWr%d", s);
        bld.ins("la r8, fftWi%d", s);
        bld.ins("la r5, fftRe");
        bld.ins("add r5, r5, r2");
        bld.ins("la r6, fftIm");
        bld.ins("add r6, r6, r2");
        bld.ins("li r3, %d", half);
        bld.label("fft_bf_" + std::to_string(s));
        bld.ins("ldc1 f2, 0(r7)");           // wr
        bld.ins("ldc1 f4, 0(r8)");           // wi
        bld.ins("ldc1 f6, %d(r5)", hioff);   // br
        bld.ins("ldc1 f8, %d(r6)", hioff);   // bi
        bld.ins("mul.d f10, f2, f6");        // wr*br
        bld.ins("mul.d f12, f4, f8");        // wi*bi
        bld.ins("sub.d f10, f10, f12");      // tr
        bld.ins("mul.d f12, f2, f8");        // wr*bi
        bld.ins("mul.d f14, f4, f6");        // wi*br
        bld.ins("add.d f12, f12, f14");      // ti
        bld.ins("ldc1 f6, 0(r5)");           // ur
        bld.ins("ldc1 f8, 0(r6)");           // ui
        bld.ins("sub.d f16, f6, f10");
        bld.ins("sdc1 f16, %d(r5)", hioff);  // re[hi] = ur - tr
        bld.ins("sub.d f16, f8, f12");
        bld.ins("sdc1 f16, %d(r6)", hioff);  // im[hi] = ui - ti
        bld.ins("add.d f16, f6, f10");
        bld.ins("sdc1 f16, 0(r5)");          // re[lo] = ur + tr
        bld.ins("add.d f16, f8, f12");
        bld.ins("sdc1 f16, 0(r6)");          // im[lo] = ui + ti
        bld.ins("addi r5, r5, 8");
        bld.ins("addi r6, r6, 8");
        bld.ins("addi r7, r7, 8");
        bld.ins("addi r8, r8, 8");
        bld.ins("subi r3, r3, 1");
        bld.ins(".loopbound %d", half);
        bld.ins("bgtz r3, fft_bf_%d", s);
        bld.ins("addi r2, r2, %d", m * 8);
        bld.ins("slti r4, r2, %d", fftN * 8);
        bld.ins(".loopbound %d", groups);
        bld.ins("bne r4, r0, fft_grp_%d", s);
    }

    // Sub-task 10: Parseval checksum scan.
    bld.subtaskBegin(fftStages + 2);
    bld.ins("cvt.d.w f4, r0");
    bld.ins("la r5, fftRe");
    bld.ins("la r6, fftIm");
    bld.ins("li r10, %d", fftN);
    bld.label("fft_ck");
    bld.ins("ldc1 f6, 0(r5)");
    bld.ins("mul.d f6, f6, f6");
    bld.ins("add.d f4, f4, f6");
    bld.ins("ldc1 f8, 0(r6)");
    bld.ins("mul.d f8, f8, f8");
    bld.ins("add.d f4, f4, f8");
    bld.ins("addi r5, r5, 8");
    bld.ins("addi r6, r6, 8");
    bld.ins("subi r10, r10, 1");
    bld.ins(".loopbound %d", fftN);
    bld.ins("bgtz r10, fft_ck");
    bld.ins("cvt.w.d r24, f4");
    bld.taskEnd(24);

    bld.beginData();
    bld.doubles("fftInRe", input);
    bld.words("fftBrev", brev);
    for (int s = 1; s <= fftStages; ++s) {
        std::vector<double> wr, wi;
        fftTwiddles(s, wr, wi);
        bld.doubles("fftWr" + std::to_string(s), wr);
        bld.doubles("fftWi" + std::to_string(s), wi);
    }
    bld.space("fftRe", fftN * 8);
    bld.space("fftIm", fftN * 8);

    Workload w;
    w.name = "fft";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = fftGolden(input);
    return w;
}

} // namespace visa
