/**
 * @file
 * crc: bitwise CRC-32 over a message buffer (C-lab "crc"). The
 * byte loop is peeled into 8 sub-tasks; the inner 8-iteration bit loop
 * is the classic nested-loop shape static timing analysis handles
 * well. Extended-suite benchmark (not part of the paper's Table 3
 * six, but in the same C-lab family).
 */

#include "workloads/clab.hh"

#include "isa/assembler.hh"
#include "workloads/asm_builder.hh"

namespace visa
{

namespace
{

constexpr int crcBytes = 480;
constexpr int crcSubtasks = 8;
constexpr int crcChunk = crcBytes / crcSubtasks;
constexpr std::uint32_t crcPoly = 0xEDB88320u;

std::vector<std::int32_t>
crcMessage()
{
    Lcg lcg(0xC12C);
    std::vector<std::int32_t> v(crcBytes);
    for (auto &b : v)
        b = lcg.range(0, 255);
    return v;
}

Word
crcGolden(const std::vector<std::int32_t> &msg)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::int32_t byte : msg) {
        crc ^= static_cast<std::uint32_t>(byte);
        for (int b = 0; b < 8; ++b) {
            if (crc & 1)
                crc = (crc >> 1) ^ crcPoly;
            else
                crc >>= 1;
        }
    }
    return ~crc;
}

} // anonymous namespace

Workload
makeCrc()
{
    auto msg = crcMessage();

    AsmBuilder bld;
    bld.ins(".text");
    for (int s = 0; s < crcSubtasks; ++s) {
        bld.subtaskBegin(s + 1);
        if (s == 0) {
            bld.ins("li r16, -1");            // crc = 0xFFFFFFFF
            bld.ins("la r3, crcMsg");
            bld.ins("li r17, 0x%X", crcPoly >> 16);
            bld.ins("sll r17, r17, 16");
            bld.ins("ori r17, r17, 0x%X", crcPoly & 0xFFFF);
        }
        bld.ins("li r2, %d", crcChunk);
        bld.label("crc_byte_" + std::to_string(s));
        bld.ins("lw r4, 0(r3)");              // message byte (as word)
        bld.ins("xor r16, r16, r4");
        bld.ins("li r5, 8");                  // bit counter
        bld.label("crc_bit_" + std::to_string(s));
        bld.ins("andi r6, r16, 1");
        bld.ins("srl r16, r16, 1");
        bld.ins("beq r6, r0, crc_nox_%d", s);
        bld.ins("xor r16, r16, r17");
        bld.label("crc_nox_" + std::to_string(s));
        bld.ins("subi r5, r5, 1");
        bld.ins(".loopbound 8");
        bld.ins("bgtz r5, crc_bit_%d", s);
        bld.ins("addi r3, r3, 4");
        bld.ins("subi r2, r2, 1");
        bld.ins(".loopbound %d", crcChunk);
        bld.ins("bgtz r2, crc_byte_%d", s);
    }
    bld.ins("not r24, r16");    // final inversion
    bld.taskEnd(24);

    bld.beginData();
    bld.words("crcMsg", msg);

    Workload w;
    w.name = "crc";
    w.source = bld.finish();
    w.numSubtasks = bld.numSubtasks();
    w.program = assemble(w.source);
    w.expectedChecksum = crcGolden(msg);
    return w;
}

} // namespace visa
