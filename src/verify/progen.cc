#include "verify/progen.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "sim/logging.hh"
#include "workloads/asm_builder.hh"

namespace visa::verify
{

const char *
profileName(GenProfile p)
{
    switch (p) {
      case GenProfile::Alu:    return "alu";
      case GenProfile::Branch: return "branch";
      case GenProfile::Memory: return "memory";
      case GenProfile::Mixed:  return "mixed";
    }
    return "?";
}

bool
parseProfile(std::string_view name, GenProfile &out)
{
    for (GenProfile p : {GenProfile::Alu, GenProfile::Branch,
                         GenProfile::Memory, GenProfile::Mixed}) {
        if (name == profileName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

namespace
{

/**
 * Register discipline. The sub-task snippets and the blt/bge family of
 * pseudo-ops clobber r1 and r25, so generated code never touches them.
 * Dedicated roles keep the generator simple and collision-free:
 *   r2..r15   value pool (seeded with random constants),
 *   r16,r17   loop counters by nesting depth,
 *   r24       checksum accumulator,
 *   r26       scratch-window base,
 *   r31       link register (JAL/JR leaf calls only).
 */
constexpr int poolLo = 2;
constexpr int poolHi = 15;
constexpr int loopReg0 = 16;
constexpr int ckReg = 24;
constexpr int baseReg = 26;

/** FP value pool f2..f9 (even-odd pairs unrestricted in VPISA). */
constexpr int fpoolLo = 2;
constexpr int fpoolHi = 9;

/** Scratch window: 128 words = 512 bytes, random-initialized. */
constexpr int scratchWords = 128;
constexpr int scratchBytes = scratchWords * 4;

constexpr int maxLoopDepth = 2;

/** Statement kinds the top-level mix chooses from. */
enum Kind
{
    KAluReg, KAluImm, KFp, KFpCmp, KLoad, KStore, KFpMem,
    KFwd, KLoop, KCall, KMix,
    KNumKinds
};

using Weights = std::array<int, KNumKinds>;

Weights
weightsFor(GenProfile p)
{
    //                    aluR aluI  fp  cmp  ld  st  fpm fwd loop call mix
    switch (p) {
      case GenProfile::Alu:
        return Weights{    45,  35,  0,   0,  0,  0,   0,  0,   0,   0, 20};
      case GenProfile::Branch:
        return Weights{    20,  15,  0,   3,  0,  0,   0, 27,  20,   0, 15};
      case GenProfile::Memory:
        return Weights{    12,   8,  0,   0, 28, 28,  10,  0,   0,   0, 14};
      case GenProfile::Mixed:
        return Weights{    16,  10,  8,   4, 13, 13,   5, 10,   8,   4,  9};
    }
    return Weights{};
}

using Op = AsmOperand;

Op ir(int n) { return Op::intReg(n); }
Op fr(int n) { return Op::fpReg(n); }
Op imm(std::int64_t v) { return Op::imm(v); }
/** A scratch-window access at byte offset @p off. */
Op scratchAt(int off) { return Op::mem(off, baseReg); }

/**
 * The generator. Where one statement draws several random values, each
 * is drawn into a named local in a fixed order (last operand first,
 * the order every seed's program was first generated in), never inside
 * a call's argument list, whose evaluation order C++ leaves open.
 */
struct Gen
{
    Gen(std::uint64_t seed, const GenParams &p)
        : params(p),
          // Fold the full 64-bit seed into the 32-bit LCG state.
          rng(static_cast<std::uint32_t>(seed ^ (seed >> 32)) ^ 0x9E3779B9u)
    {
    }

    const GenParams &params;
    Lcg rng;
    AsmBuilder b;
    int labelN = 0;
    int depth = 0;
    /** Product of enclosing loop bounds. */
    std::uint64_t weight = 1;
    /** Conservative dynamic-instruction bound accumulated so far. */
    std::uint64_t dyn = 0;
    /** Per-call dynamic cost of each emitted leaf function. */
    std::vector<std::uint64_t> funcCost;

    void cost(std::uint64_t instructions) { dyn += instructions * weight; }

    int pool() { return rng.range(poolLo, poolHi); }
    int fpool() { return rng.range(fpoolLo, fpoolHi); }
    std::string newLabel(const char *stem)
    {
        return std::string(stem) + std::to_string(labelN++);
    }

    /** op rd, rs, rt over the value pool, drawn rt first. */
    void
    poolRrr(std::string_view op)
    {
        const int rt = pool();
        const int rs = pool();
        const int rd = pool();
        b.inst(op, {ir(rd), ir(rs), ir(rt)});
    }

    /** op rd, rs, @p v over the value pool, drawn rs first. */
    void
    poolRri(std::string_view op, std::int32_t v)
    {
        const int rs = pool();
        const int rd = pool();
        b.inst(op, {ir(rd), ir(rs), imm(v)});
    }

    // ---- single-instruction statements ----

    void
    aluReg()
    {
        static constexpr std::string_view ops[] = {
            "add", "sub", "mul", "div", "rem", "and", "or",
            "xor", "nor", "slt", "sltu", "sllv", "srlv", "srav"};
        poolRrr(ops[rng.range(0, 13)]);
        cost(1);
    }

    void
    aluImm()
    {
        switch (rng.range(0, 7)) {
          case 0: poolRri("sll", rng.range(0, 31)); break;
          case 1: poolRri("srl", rng.range(0, 31)); break;
          case 2: poolRri("sra", rng.range(0, 31)); break;
          case 3: poolRri("addi", rng.range(-256, 255)); break;
          case 4: {
            static constexpr std::string_view ops[] = {"andi", "ori",
                                                       "xori"};
            const std::int32_t v = rng.range(0, 4095);
            const int rs = pool();
            const int rd = pool();
            b.inst(ops[rng.range(0, 2)], {ir(rd), ir(rs), imm(v)});
            break;
          }
          case 5: poolRri("slti", rng.range(-256, 255)); break;
          case 6: poolRri("sltiu", rng.range(0, 511)); break;
          default: {
            const std::int32_t v = rng.range(0, 65535);
            b.inst("lui", {ir(pool()), imm(v)});
          }
        }
        cost(1);
    }

    void
    fp()
    {
        // No cvt.w.d here: unconstrained doubles can exceed the int32
        // range and the conversion would be host UB (flagged under
        // UBSan); cvt.w.d coverage lives in the directed ISA tests.
        static constexpr std::string_view two[] = {"add.d", "sub.d",
                                                   "mul.d", "div.d"};
        if (rng.range(0, 3) == 0) {
            static constexpr std::string_view one[] = {"neg.d", "abs.d",
                                                       "mov.d"};
            const int fs = fpool();
            const int fd = fpool();
            b.inst(one[rng.range(0, 2)], {fr(fd), fr(fs)});
        } else {
            const int ft = fpool();
            const int fs = fpool();
            const int fd = fpool();
            b.inst(two[rng.range(0, 3)], {fr(fd), fr(fs), fr(ft)});
        }
        cost(1);
    }

    void
    fpCmp()
    {
        static constexpr std::string_view ops[] = {"c.eq.d", "c.lt.d",
                                                   "c.le.d"};
        const int ft = fpool();
        const int fs = fpool();
        b.inst(ops[rng.range(0, 2)], {fr(fs), fr(ft)});
        cost(1);
    }

    /** Naturally aligned offset for a @p width-byte scratch access. */
    int
    scratchOff(int width)
    {
        return rng.range(0, scratchBytes / width - 1) * width;
    }

    /** op rt, off(base) with the offset drawn first. */
    void
    scratchAccess(std::string_view op, int width)
    {
        const int off = scratchOff(width);
        b.inst(op, {ir(pool()), scratchAt(off)});
    }

    void
    load()
    {
        static constexpr std::string_view ops[] = {"lb", "lbu", "lh", "lhu",
                                                   "lw"};
        static constexpr int widths[] = {1, 1, 2, 2, 4};
        const int k = rng.range(0, 4);
        scratchAccess(ops[k], widths[k]);
        cost(1);
    }

    void
    store()
    {
        static constexpr std::string_view ops[] = {"sb", "sh", "sw"};
        static constexpr int widths[] = {1, 2, 4};
        const int k = rng.range(0, 2);
        scratchAccess(ops[k], widths[k]);
        cost(1);
    }

    void
    fpMem()
    {
        const std::string_view op = rng.range(0, 1) ? "ldc1" : "sdc1";
        const int off = scratchOff(8);
        b.inst(op, {fr(fpool()), scratchAt(off)});
        cost(1);
    }

    void
    mix()
    {
        b.inst("xor", {ir(ckReg), ir(ckReg), ir(pool())});
        cost(1);
    }

    // ---- structured statements ----

    /** A forward conditional branch over 1..3 simple statements. */
    void
    fwdBranch(const Weights &w)
    {
        static constexpr std::string_view ops[] = {
            "beq", "bne", "blez", "bgtz", "bltz", "bgez", "bc1t", "bc1f"};
        const std::string skip = newLabel("Lskip");
        const int k = rng.range(0, w[KFp] > 0 || w[KFpCmp] > 0 ? 7 : 5);
        if (k < 2) {
            const int rt = pool();
            const int rs = pool();
            b.inst(ops[k], {ir(rs), ir(rt), Op::sym(skip)});
        } else if (k < 6) {
            b.inst(ops[k], {ir(pool()), Op::sym(skip)});
        } else {
            b.inst(ops[k], {Op::sym(skip)});
        }
        cost(1);
        // The skipped statements are charged unconditionally: the
        // bound stays conservative whichever way the branch goes.
        int n = rng.range(1, 3);
        for (int i = 0; i < n; ++i)
            simpleStatement(w);
        b.label(skip);
    }

    /** A counted loop with an exact `.loopbound`. */
    void
    loop(const Weights &w)
    {
        const int bound = rng.range(2, 5);
        const int bodyStmts = rng.range(2, 4);
        // Worst-case addition: every body statement is a forward
        // branch over 3 two-instruction statements, plus the loop
        // overhead itself; skip the loop if it could blow the budget.
        const std::uint64_t worst =
            weight * (2 + static_cast<std::uint64_t>(bound) *
                              (static_cast<std::uint64_t>(bodyStmts) * 8 + 2));
        if (dyn + worst > params.maxDynamic || depth >= maxLoopDepth) {
            aluReg();
            return;
        }
        const int rc = loopReg0 + depth;
        const std::string head = newLabel("Lloop");
        b.inst("li", {ir(rc), imm(bound)});
        cost(1);
        b.label(head);
        ++depth;
        weight *= static_cast<std::uint64_t>(bound);
        for (int i = 0; i < bodyStmts; ++i)
            statement(w, /*inLoop=*/true);
        b.inst("subi", {ir(rc), ir(rc), imm(1)});
        b.inst(".loopbound", {imm(bound)});
        b.inst("bgtz", {ir(rc), Op::sym(head)});
        cost(2);
        weight /= static_cast<std::uint64_t>(bound);
        --depth;
    }

    void
    call()
    {
        if (funcCost.empty()) {
            aluReg();
            return;
        }
        int k = rng.range(0, static_cast<std::int32_t>(funcCost.size()) - 1);
        b.inst("jal", {Op::sym("Lfunc" + std::to_string(k))});
        dyn += (1 + funcCost[static_cast<std::size_t>(k)]) * weight;
    }

    // ---- statement dispatch ----

    /** A statement that is always a single instruction. */
    void
    simpleStatement(const Weights &w)
    {
        static const Kind simple[] = {KAluReg, KAluImm, KFp, KLoad, KMix};
        // Draw until we hit a kind the profile enables (KAluReg always
        // is); the loop terminates because every profile enables it.
        for (;;) {
            Kind k = simple[rng.range(0, 4)];
            if (w[k] == 0 && k != KAluReg)
                continue;
            switch (k) {
              case KAluImm: aluImm(); return;
              case KFp:     fp();     return;
              case KLoad:   load();   return;
              case KMix:    mix();    return;
              default:      aluReg(); return;
            }
        }
    }

    void
    statement(const Weights &w, bool inLoop)
    {
        int total = 0;
        for (int v : w)
            total += v;
        int pick = rng.range(0, total - 1);
        int k = 0;
        while (pick >= w[k]) {
            pick -= w[k];
            ++k;
        }
        switch (static_cast<Kind>(k)) {
          case KAluReg: aluReg(); break;
          case KAluImm: aluImm(); break;
          case KFp:     fp();     break;
          case KFpCmp:  fpCmp();  break;
          case KLoad:   load();   break;
          case KStore:  store();  break;
          case KFpMem:  fpMem();  break;
          case KFwd:    fwdBranch(w); break;
          case KLoop:
            if (inLoop && depth >= maxLoopDepth)
                aluReg();
            else
                loop(w);
            break;
          case KCall:   call();   break;
          default:      mix();    break;
        }
    }

    // ---- program skeleton ----

    void
    prologue(bool useFp)
    {
        b.inst("la", {ir(baseReg), Op::sym("scratch")});
        cost(2);
        if (useFp) {
            for (int f = fpoolLo; f <= fpoolHi; ++f) {
                b.inst("li", {ir(2), imm(rng.range(-9999, 9999))});
                b.inst("cvt.d.w", {fr(f), ir(2)});
                cost(3);
            }
        }
        for (int r = poolLo; r <= poolHi; ++r) {
            b.inst("li", {ir(r), imm(static_cast<std::int32_t>(
                                          rng.next() & 0x7FFFFFFF) -
                                      0x3FFFFFFF)});
            cost(2);
        }
        b.inst("li", {ir(ckReg),
                      imm(static_cast<std::int32_t>(rng.next() & 0xFFFF))});
        cost(2);
    }

    /** Mix live pool registers into the checksum before terminating. */
    void
    checksumFinish(bool touchesMemory)
    {
        for (int r = poolLo; r <= poolLo + 5; ++r) {
            b.inst("xor", {ir(ckReg), ir(ckReg), ir(r)});
            cost(1);
        }
        if (touchesMemory) {
            b.inst("lw", {ir(2), scratchAt(0)});
            b.inst("xor", {ir(ckReg), ir(ckReg), ir(2)});
            cost(2);
        }
    }

    void
    leafFunctions()
    {
        for (std::size_t k = 0; k < funcCost.size(); ++k) {
            b.label("Lfunc" + std::to_string(k));
            int n = rng.range(2, 4);
            for (int i = 0; i < n; ++i) {
                // ALU-only bodies: no labels, loops, or further calls.
                static constexpr std::string_view ops[] = {"add", "xor",
                                                           "sub", "or"};
                const int rt = pool();
                const int rs = pool();
                const int rd = pool();
                b.inst(ops[rng.range(0, 3)], {ir(rd), ir(rs), ir(rt)});
            }
            b.inst("jr", {ir(31)});
        }
    }

    void
    scratchData()
    {
        b.beginData();
        std::vector<std::int32_t> init;
        init.reserve(scratchWords);
        for (int i = 0; i < scratchWords; ++i)
            init.push_back(static_cast<std::int32_t>(rng.next()));
        b.words("scratch", init);
    }
};

} // namespace

GeneratedProgram
generate(std::uint64_t seed, const GenParams &params)
{
    GeneratedProgram out;
    out.seed = seed;
    out.profile = params.profile;

    Gen g(seed, params);
    const Weights w = weightsFor(params.profile);
    const bool useFp = w[KFp] > 0 || w[KFpCmp] > 0 || w[KFpMem] > 0;
    const bool calls = params.allowCalls && w[KCall] > 0;

    // Reserve leaf-function slots up front so calls can be generated
    // anywhere in the body; bodies are emitted (and costed) first so
    // call sites charge the exact per-call cost.
    if (calls)
        g.funcCost.resize(static_cast<std::size_t>(g.rng.range(1, 2)));

    const int subtasks =
        params.instrument ? std::max(1, params.subtasks) : 1;
    const int stmts = std::max(1, params.statements);

    // Function bodies are placed after the halt but their per-call
    // cost must be known when call sites are costed: charge the worst
    // case (4 ALU ops + jr).
    if (calls)
        for (auto &c : g.funcCost)
            c = 5;

    if (params.instrument)
        g.b.subtaskBegin(1);
    g.cost(params.instrument ? 20 : 0);
    g.prologue(useFp);

    for (int s = 0; s < subtasks; ++s) {
        if (params.instrument && s > 0) {
            // The WCET analyzer requires sub-task markers to start a
            // basic block; a jump to the marker forces the boundary.
            const std::string seg = "Lseg_" + std::to_string(s + 1);
            g.b.inst("j", {Op::sym(seg)});
            g.b.label(seg);
            g.b.subtaskBegin(s + 1);
            g.cost(21);
        }
        const int per = std::max(1, stmts / subtasks);
        for (int i = 0; i < per; ++i)
            g.statement(w, /*inLoop=*/false);
    }

    g.checksumFinish(w[KLoad] > 0 || w[KStore] > 0 || w[KFpMem] > 0);
    if (params.instrument) {
        g.b.taskEnd(ckReg);
        g.cost(8);
    } else {
        g.b.inst("halt");
        g.cost(1);
    }
    if (calls)
        g.leafFunctions();
    g.scratchData();

    out.source = g.b.finish();
    out.dynamicBound = g.dyn;
    out.program = g.b.program();
    return out;
}

} // namespace visa::verify
