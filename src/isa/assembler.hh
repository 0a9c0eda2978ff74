/**
 * @file
 * The assembler's text front end: one scan splits each source line into
 * labels, a head and operand tokens and hands them to the assembler's
 * back end (isa/asm_backend.hh), which records instructions and labels,
 * then resolves symbols and encodes the instructions.
 *
 * Supported syntax (one statement per line, '#' or ';' comments):
 *
 *   label:    addi r4, r0, 100
 *             lw   r5, 12(r4)
 *             beq  r4, r5, done
 *             .data
 *   arr:      .word 1, 2, 3
 *   buf:      .space 256
 *   tw:       .double 0.5, -1.25
 *
 * Directives: .text .data .word .half .byte .double .ascii .asciz
 *             .global (ignored) .entry <label> .equ <name>, <value>
 *             .space <N>       -- N zero bytes, 0 <= N; the data segment
 *                                 must stay inside the 32-bit space
 *             .align <N>       -- pad to a 2^N-byte boundary, 0 <= N <= 16
 *             .loopbound <N>   -- attaches to the next text instruction,
 *                                 which must be the loop's back-edge
 *                                 branch; N >= 1 bounds body iterations
 *                                 per loop entry
 *             .subtask <K>     -- next instruction starts sub-task K
 *
 * Integer literals are decimal, 0x/0X hex or 0-prefixed octal, with an
 * optional sign, and must fit in 64 signed bits. The whole token must
 * parse: "09" or "0x1G" is an error, not 0 or 1.
 *
 * Pseudo-instructions: li, la, move, b, blt/bge/bgt/ble (via r1=at),
 * subi, neg, not.
 */

#ifndef VISA_ISA_ASSEMBLER_HH
#define VISA_ISA_ASSEMBLER_HH

#include <string>

#include "isa/program.hh"

namespace visa
{

/**
 * Assemble @p source into a loadable Program.
 *
 * @param source full assembly text
 * @param text_base base address for the text segment
 * @param data_base base address for the data segment
 * @return the assembled program (entry defaults to the first text
 *         instruction, or the .entry label if given)
 *
 * Errors (unknown mnemonic, bad operand, out-of-range register or
 * directive argument, malformed literal, undefined symbol, immediate
 * overflow) raise FatalError with the offending line number.
 */
Program assemble(const std::string &source,
                 Addr text_base = defaultTextBase,
                 Addr data_base = defaultDataBase);

} // namespace visa

#endif // VISA_ISA_ASSEMBLER_HH
