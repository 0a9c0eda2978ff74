/**
 * @file
 * Quickstart: assemble a small hard real-time task, execute it on both
 * the explicitly-safe simple-fixed pipeline and the complex
 * out-of-order pipeline, bound it with the static WCET analyzer, and
 * print the numbers the VISA framework is built on.
 *
 *   $ ./examples/quickstart
 */

#include <cstdio>

#include "cpu/rig.hh"
#include "isa/assembler.hh"
#include "wcet/analyzer.hh"

using namespace visa;

namespace
{

// A toy sensor-filter task: scale an input vector, accumulate, and
// publish a checksum. Three sub-tasks, loop bounds annotated for the
// timing analyzer.
const char *taskSource = R"(
        .subtask 1
        la   r4, input
        la   r5, output
        addi r6, r0, 64         # elements
        addi r7, r0, 3          # gain
loop1:  lw   r8, 0(r4)
        mul  r8, r8, r7
        sw   r8, 0(r5)
        addi r4, r4, 4
        addi r5, r5, 4
        subi r6, r6, 1
        .loopbound 64
        bgtz r6, loop1

        .subtask 2
        la   r5, output
        addi r6, r0, 64
        addi r9, r0, 0
loop2:  lw   r8, 0(r5)
        add  r9, r9, r8
        addi r5, r5, 4
        subi r6, r6, 1
        .loopbound 64
        bgtz r6, loop2

        .subtask 3
        li   r10, 0xFFFF0018    # checksum MMIO port
        sw   r9, 0(r10)
        halt

        .data
input:  .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
        .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
        .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
        .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
output: .space 256
wdinc:  .space 12
)";

template <typename CpuT>
std::pair<Cycles, Word>
runOn(const Program &prog)
{
    Rig rig(prog);
    CpuT &cpu = rig.build<CpuT>();
    cpu.run();
    return {cpu.cycles(), rig.platform().lastChecksum()};
}

} // anonymous namespace

int
main()
{
    std::printf("== VISA quickstart ==\n\n");

    Program prog = assemble(taskSource);
    std::printf("assembled %zu instructions, %d sub-tasks\n",
                prog.size(), static_cast<int>(prog.subtaskStarts.size()));

    auto [simple_cycles, simple_ck] = runOn<SimpleCpu>(prog);
    auto [complex_cycles, complex_ck] = runOn<OooCpu>(prog);
    std::printf("simple-fixed pipeline: %8llu cycles (checksum 0x%x)\n",
                static_cast<unsigned long long>(simple_cycles),
                simple_ck);
    std::printf("complex OOO pipeline:  %8llu cycles (checksum 0x%x)\n",
                static_cast<unsigned long long>(complex_cycles),
                complex_ck);
    std::printf("speedup from ILP:      %.2fx\n\n",
                static_cast<double>(simple_cycles) /
                    static_cast<double>(complex_cycles));

    // Static worst-case timing analysis on the VISA (paper §3.3).
    WcetAnalyzer analyzer(prog);
    DMissProfile dmiss = profileDataMisses(prog);
    for (MHz f : {1000u, 500u, 100u}) {
        WcetReport rep = analyzer.analyze(f, &dmiss);
        std::printf("WCET @ %4u MHz: %llu cycles = %.2f us  (sub-tasks:",
                    f, static_cast<unsigned long long>(rep.taskCycles),
                    rep.taskMicros());
        for (Cycles c : rep.subtaskCycles)
            std::printf(" %llu", static_cast<unsigned long long>(c));
        std::printf(")\n");
    }

    WcetReport rep = analyzer.analyze(1000, &dmiss);
    std::printf("\nsafety check: WCET(%llu) >= actual simple (%llu): %s\n",
                static_cast<unsigned long long>(rep.taskCycles),
                static_cast<unsigned long long>(simple_cycles),
                rep.taskCycles >= simple_cycles ? "OK" : "VIOLATION");
    return rep.taskCycles >= simple_cycles &&
                   simple_ck == complex_ck
               ? 0
               : 1;
}
