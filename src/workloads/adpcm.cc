/**
 * @file
 * adpcm: IMA ADPCM speech encoder (C-lab "adpcm"). 1600 16-bit
 * samples, peeled into 8 sub-tasks of 200 samples (Table 3 lists 8
 * sub-tasks for adpcm). Heavy data-dependent forward branching
 * (sign/quantize/clamp), which is exactly what makes its WCET bound
 * loose (Table 3: 1.35x). Checksum: wrapping sum of every emitted
 * code and predictor value.
 */

#include "workloads/clab.hh"

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int adpcmSamples = 1600;
constexpr int adpcmSubtasks = 8;
constexpr int adpcmChunk = adpcmSamples / adpcmSubtasks;

const std::int32_t stepsizeTable[89] = {
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
    19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
    50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
    130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
    337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
    876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
    5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

const std::int32_t indexTable[16] = {-1, -1, -1, -1, 2, 4, 6, 8,
                                     -1, -1, -1, -1, 2, 4, 6, 8};

std::vector<std::int32_t>
adpcmInput()
{
    // A synthetic speech-like signal: a couple of mixed tones with
    // deterministic jitter.
    Lcg lcg(0xADCF);
    std::vector<std::int32_t> v(adpcmSamples);
    double phase1 = 0.0, phase2 = 0.0;
    for (int i = 0; i < adpcmSamples; ++i) {
        phase1 += 0.07;
        phase2 += 0.023;
        double s = 9000.0 * (phase1 - static_cast<int>(phase1) - 0.5) +
                   6000.0 * (phase2 - static_cast<int>(phase2) - 0.5);
        v[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>(s) + lcg.range(-800, 800);
    }
    return v;
}

Word
adpcmGolden(const std::vector<std::int32_t> &in)
{
    Word ck = 0;
    std::int32_t valpred = 0;
    std::int32_t index = 0;
    for (std::int32_t val : in) {
        std::int32_t step = stepsizeTable[index];
        std::int32_t diff = val - valpred;
        std::int32_t sign = 0;
        if (diff < 0) {
            sign = 8;
            diff = -diff;
        }
        std::int32_t delta = 0;
        std::int32_t vpdiff = step >> 3;
        if (diff >= step) {
            delta = 4;
            diff -= step;
            vpdiff += step;
        }
        step >>= 1;
        if (diff >= step) {
            delta |= 2;
            diff -= step;
            vpdiff += step;
        }
        step >>= 1;
        if (diff >= step) {
            delta |= 1;
            vpdiff += step;
        }
        if (sign)
            valpred -= vpdiff;
        else
            valpred += vpdiff;
        if (valpred > 32767)
            valpred = 32767;
        else if (valpred < -32768)
            valpred = -32768;
        delta |= sign;
        index += indexTable[delta];
        if (index < 0)
            index = 0;
        else if (index > 88)
            index = 88;
        ck += static_cast<Word>(delta);
        ck += static_cast<Word>(valpred);
    }
    return ck;
}

} // anonymous namespace

Workload
makeAdpcm()
{
    auto input = adpcmInput();

    AsmBuilder bld;
    bld.ins(".text");
    for (int s = 0; s < adpcmSubtasks; ++s) {
        bld.subtaskBegin(s + 1);
        if (s == 0) {
            bld.ins("li r16, 0");    // valpred
            bld.ins("li r17, 0");    // index
            bld.ins("li r24, 0");    // checksum
            bld.ins("la r3, adpcmIn");
            bld.ins("la r5, adpcmOut");
            bld.ins("la r18, adpcmStep");
            bld.ins("la r19, adpcmIdx");
        }
        bld.ins("li r2, %d", adpcmChunk);
        bld.label("adpcm_s_" + std::to_string(s));
        bld.ins("lw r4, 0(r3)");            // val
        bld.ins("sll r6, r17, 2");
        bld.ins("add r6, r6, r18");
        bld.ins("lw r7, 0(r6)");            // step
        bld.ins("sub r8, r4, r16");         // diff
        bld.ins("li r9, 0");                // sign
        bld.ins("bgez r8, adpcm_pos_%d", s);
        bld.ins("li r9, 8");
        bld.ins("sub r8, r0, r8");
        bld.label("adpcm_pos_" + std::to_string(s));
        bld.ins("li r10, 0");               // delta
        bld.ins("sra r11, r7, 3");          // vpdiff
        bld.ins("slt r4, r8, r7");
        bld.ins("bne r4, r0, adpcm_no4_%d", s);
        bld.ins("ori r10, r10, 4");
        bld.ins("sub r8, r8, r7");
        bld.ins("add r11, r11, r7");
        bld.label("adpcm_no4_" + std::to_string(s));
        bld.ins("sra r7, r7, 1");
        bld.ins("slt r4, r8, r7");
        bld.ins("bne r4, r0, adpcm_no2_%d", s);
        bld.ins("ori r10, r10, 2");
        bld.ins("sub r8, r8, r7");
        bld.ins("add r11, r11, r7");
        bld.label("adpcm_no2_" + std::to_string(s));
        bld.ins("sra r7, r7, 1");
        bld.ins("slt r4, r8, r7");
        bld.ins("bne r4, r0, adpcm_no1_%d", s);
        bld.ins("ori r10, r10, 1");
        bld.ins("add r11, r11, r7");
        bld.label("adpcm_no1_" + std::to_string(s));
        bld.ins("beq r9, r0, adpcm_up_%d", s);
        bld.ins("sub r16, r16, r11");
        bld.ins("j adpcm_clamp_%d", s);
        bld.label("adpcm_up_" + std::to_string(s));
        bld.ins("add r16, r16, r11");
        bld.label("adpcm_clamp_" + std::to_string(s));
        bld.ins("li r4, 32767");
        bld.ins("slt r6, r4, r16");
        bld.ins("beq r6, r0, adpcm_nohi_%d", s);
        bld.ins("move r16, r4");
        bld.label("adpcm_nohi_" + std::to_string(s));
        bld.ins("li r4, -32768");
        bld.ins("slt r6, r16, r4");
        bld.ins("beq r6, r0, adpcm_nolo_%d", s);
        bld.ins("move r16, r4");
        bld.label("adpcm_nolo_" + std::to_string(s));
        bld.ins("or r10, r10, r9");
        bld.ins("sll r4, r10, 2");
        bld.ins("add r4, r4, r19");
        bld.ins("lw r6, 0(r4)");
        bld.ins("add r17, r17, r6");
        bld.ins("bgez r17, adpcm_idxlo_%d", s);
        bld.ins("li r17, 0");
        bld.label("adpcm_idxlo_" + std::to_string(s));
        bld.ins("li r4, 88");
        bld.ins("slt r6, r4, r17");
        bld.ins("beq r6, r0, adpcm_idxhi_%d", s);
        bld.ins("move r17, r4");
        bld.label("adpcm_idxhi_" + std::to_string(s));
        bld.ins("sb r10, 0(r5)");
        bld.ins("add r24, r24, r10");
        bld.ins("add r24, r24, r16");
        bld.ins("addi r3, r3, 4");
        bld.ins("addi r5, r5, 1");
        bld.ins("subi r2, r2, 1");
        bld.ins(".loopbound %d", adpcmChunk);
        bld.ins("bgtz r2, adpcm_s_%d", s);
    }
    bld.taskEnd(24);

    bld.beginData();
    bld.words("adpcmIn", input);
    bld.words("adpcmStep",
              std::vector<std::int32_t>(stepsizeTable,
                                        stepsizeTable + 89));
    bld.words("adpcmIdx",
              std::vector<std::int32_t>(indexTable, indexTable + 16));
    bld.space("adpcmOut", adpcmSamples);

    Workload w;
    w.name = "adpcm";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = adpcmGolden(input);
    return w;
}

} // namespace visa
