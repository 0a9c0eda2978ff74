#include "verify/inject.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "chip/paired.hh"
#include "core/runtime.hh"
#include "cpu/rig.hh"
#include "isa/semantics.hh"
#include "mem/memory.hh"
#include "sim/parallel.hh"
#include "sim/prof/prof.hh"
#include "verify/lockstep.hh"
#include "wcet/analyzer.hh"

namespace visa::verify
{

namespace
{

/** splitmix64: the derived-value generator (same family as progen). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

constexpr const char *classNames[numFaultClasses] = {
    "reg-bit-flip", "load-value",    "load-addr",
    "store-addr",   "branch-dir",    "branch-target",
    "decode-imm",   "wakeup-stall",  "load-ext",
};

} // anonymous namespace

const char *
faultClassName(FaultClass cls)
{
    const int i = static_cast<int>(cls);
    return (i >= 0 && i < numFaultClasses) ? classNames[i] : "?";
}

bool
parseFaultClass(const char *name, FaultClass &out)
{
    for (int i = 0; i < numFaultClasses; ++i) {
        if (std::strcmp(name, classNames[i]) == 0) {
            out = static_cast<FaultClass>(i);
            return true;
        }
    }
    return false;
}

FaultSpec
loadExtBugSpec()
{
    FaultSpec s;
    s.cls = FaultClass::LoadExt;
    s.persistent = true;
    return s;
}

FaultInjector::FaultInjector(const FaultSpec &spec)
    : spec_(spec)
{
}

bool
FaultInjector::armed(Cycles cycle) const
{
    if (spec_.triggerCycle)
        return cycle >= spec_.triggerCycle;
    return executed_ >= spec_.triggerInstr;
}

void
FaultInjector::onExecute(ExecCore &core, MainMemory &mem, ExecInfo &info,
                         std::uint64_t seq, Cycles cycle)
{
    const bool was_armed = armed(cycle);
    ++executed_;
    if (spec_.cls == FaultClass::WakeupStall)
        return;    // timing-only; lives in onIssueReady()
    if (!was_armed || (rec_.fired && !spec_.persistent))
        return;
    // MMIO instructions drive the watchdog/AET protocol itself and the
    // halt marker ends the run — neither is a modeled victim structure.
    if (info.halted || info.isMmio)
        return;
    if (!apply(core, mem, info))
        return;
    if (!rec_.fired) {
        rec_.fired = true;
        rec_.seq = seq;
        rec_.pc = info.pc;
        rec_.cycle = cycle;
        VISA_TRACE(EventKind::FaultInject, cycle,
                   static_cast<std::uint64_t>(spec_.cls), info.pc, seq);
    }
    ++rec_.applied;
}

Cycles
FaultInjector::onIssueReady(std::uint64_t seq, Cycles cycle)
{
    if (spec_.cls != FaultClass::WakeupStall)
        return 0;
    if (rec_.fired && (!spec_.persistent || seq <= rec_.seq))
        return 0;    // never re-stall one entry: that would livelock
    const bool hit = spec_.triggerCycle ? cycle >= spec_.triggerCycle
                                        : seq >= spec_.triggerInstr;
    if (!hit)
        return 0;
    if (!rec_.fired) {
        rec_.fired = true;
        rec_.cycle = cycle;
        VISA_TRACE(EventKind::FaultInject, cycle,
                   static_cast<std::uint64_t>(spec_.cls), 0, seq);
    }
    rec_.seq = seq;
    ++rec_.applied;
    return static_cast<Cycles>(1)
           << (10 + static_cast<int>(mix64(spec_.seed) % 8));
}

bool
FaultInjector::apply(ExecCore &core, MainMemory &mem, ExecInfo &info)
{
    const Instruction &inst = info.inst;
    ArchState &st = core.state();
    const std::uint64_t r = mix64(spec_.seed);

    switch (spec_.cls) {
      case FaultClass::RegBitFlip: {
        const int rd = inst.destIntReg();
        if (rd < 0)
            return false;
        st.writeInt(rd, st.readInt(rd) ^
                            (static_cast<Word>(1) << (r % 32)));
        return true;
      }
      case FaultClass::LoadValue: {
        const int rd = inst.destIntReg();
        if (!info.isLoad || rd < 0)
            return false;
        st.writeInt(rd, st.readInt(rd) ^
                            (static_cast<Word>(1) << (r % 32)));
        return true;
      }
      case FaultClass::LoadAddr: {
        const int rd = inst.destIntReg();
        if (!info.isLoad || rd < 0)
            return false;
        // Flip an address bit above the word offset: alignment is
        // preserved and the access stays near the original page.
        const Addr ea = info.effAddr ^
                        (static_cast<Addr>(1) << (4 + r % 8));
        if (mmio::contains(ea))
            return false;
        const Word raw = static_cast<Word>(
            mem.read(ea, inst.memBytes()));
        st.writeInt(rd, extendLoad(inst.op, raw));
        info.effAddr = ea;    // the timing model sees the bad address
        return true;
      }
      case FaultClass::StoreAddr: {
        if (!inst.isStore() || inst.op == Opcode::SDC1)
            return false;
        const Addr ea = info.effAddr ^
                        (static_cast<Addr>(1) << (4 + r % 8));
        // A wild store into text would leave the victim executing
        // garbage encodings (an immediate decode trap) — scribbling
        // over data models the interesting escapes.
        const Program &prog = core.program();
        if (mmio::contains(ea) ||
            (ea + 4 > prog.textBase && ea < prog.textEnd()))
            return false;
        mem.write(ea, st.readInt(inst.rt), inst.memBytes());
        return true;
      }
      case FaultClass::BranchDir: {
        if (!inst.isCondBranch())
            return false;
        info.taken = !info.taken;
        info.nextPc = info.taken ? static_cast<Addr>(inst.imm)
                                 : info.pc + 4;
        st.pc = info.nextPc;
        return true;
      }
      case FaultClass::BranchTarget: {
        // Target-field upset in the decoded record / BTB: a *taken*
        // control transfer (direct jump or taken conditional branch)
        // lands on its fall-through slot instead of its target. The
        // direction is untouched — that is BranchDir's job.
        const bool transfer =
            inst.isDirectJump() || (inst.isCondBranch() && info.taken);
        if (!transfer)
            return false;
        const Addr t = info.pc + 4;
        if (t >= core.program().textEnd() || t == info.nextPc)
            return false;
        info.nextPc = t;    // taken, but to the fall-through slot
        st.pc = t;
        return true;
      }
      case FaultClass::DecodeImm: {
        // Replay the op with one immediate bit flipped. Restricted to
        // ops whose correct result lets the source value be recovered
        // even when rd == rs (the functional step already ran).
        const int rd = inst.destIntReg();
        if (rd < 0)
            return false;
        const std::int32_t imm2 =
            inst.imm ^ (static_cast<std::int32_t>(1) << (r % 12));
        const Word old = st.readInt(rd);
        if (inst.op == Opcode::ADDI)
            st.writeInt(rd, old + static_cast<Word>(imm2 - inst.imm));
        else if (inst.op == Opcode::XORI)
            st.writeInt(rd, old ^ static_cast<Word>(inst.imm) ^
                                static_cast<Word>(imm2));
        else
            return false;
        return true;
      }
      case FaultClass::LoadExt: {
        // The legacy deliberate bug: LB/LH zero-extend.
        const int rd = inst.destIntReg();
        if (rd < 0 ||
            (inst.op != Opcode::LB && inst.op != Opcode::LH))
            return false;
        const Word raw = static_cast<Word>(
            mem.read(info.effAddr, inst.memBytes()));
        st.writeInt(rd, raw);    // raw bytes are already zero-extended
        return true;
      }
      case FaultClass::WakeupStall:
        return false;    // unreachable (filtered in onExecute)
    }
    return false;
}

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

namespace
{

/** Golden functional run: checksum + dynamic instruction count. */
struct Golden
{
    Word checksum = 0;
    std::uint64_t insts = 0;
};

Golden
goldenRun(const Program &prog)
{
    Rig rig(prog);
    SimpleCpu &cpu = rig.build<SimpleCpu>();
    cpu.run(2'000'000'000ULL);
    return {rig.platform().lastChecksum(), cpu.retired()};
}

/** First watchdog_fire cycle at/after @p after in @p tr (0 = none). */
Cycles
watchdogFireCycle(const Tracer &tr, Cycles after)
{
    for (std::size_t i = 0; i < tr.size(); ++i) {
        const TraceEvent &e = tr.at(i);
        if (e.kind == EventKind::WatchdogFire && e.cycle >= after)
            return e.cycle;
    }
    return 0;
}

} // anonymous namespace

InjectRunResult
runInjectProgram(std::uint64_t seed, FaultClass cls,
                 const InjectRunOptions &opts)
{
    InjectRunResult res;
    res.seed = seed;
    res.cls = cls;

    // The instrumented variant carries the watchdog/AET protocol the
    // runtime needs; the fault is injected into this one.
    GenParams gp;
    gp.profile = opts.profile;
    gp.statements = opts.statements;
    gp.instrument = true;
    gp.allowCalls = false;
    const GeneratedProgram g = generate(seed, gp);
    res.source = g.source;

    const Golden gold = goldenRun(g.program);
    res.goldenChecksum = gold.checksum;

    FaultSpec spec;
    spec.cls = cls;
    spec.seed = mix64(seed ^ (static_cast<std::uint64_t>(cls) << 56));
    spec.persistent = cls == FaultClass::LoadExt;
    // Bias the victim into the first half of the dynamic run: a
    // trigger near the end often finds no eligible instruction and
    // wastes the program on NoTrigger.
    spec.triggerInstr =
        opts.triggerFirst
            ? 0
            : mix64(spec.seed + 1) %
                  std::max<std::uint64_t>(1, gold.insts / 2 + 1);

    // Static analysis + the oracle's deadline provisioning, so EQ 4
    // speculation engages and the watchdog is armed.
    WcetAnalyzer analyzer(g.program);
    const DMissProfile dmiss = profileDataMisses(g.program);
    const DvsTable dvs;
    const WcetTable wcet(analyzer, dvs, &dmiss);
    const double deadline =
        opts.deadlineSlack *
        (opts.ovhdSeconds + wcet.taskSeconds(opts.fRec));
    res.deadlineSeconds = deadline;

    // ---- phase A: injected run under the restart-recovery runtime ----
    Rig rig(g.program);
    OooCpu &cpu = rig.build<OooCpu>();
    RuntimeConfig cfg;
    cfg.deadlineSeconds = deadline;
    cfg.ovhdSeconds = opts.ovhdSeconds;
    cfg.dvsSoftwareCycles = opts.dvsSoftwareCycles;
    cfg.drainBudgetCycles = opts.drainBudgetCycles;
    cfg.recoveryPolicy = RecoveryPolicy::Restart;
    cfg.restartRestoreCycles = opts.restartRestoreCycles;
    VisaComplexRuntime rt(cpu, g.program, rig.mem(), wcet, dvs, cfg);
    rt.pets().seed(profileComplexAets(g.program, wcet.numSubtasks()));

    if (opts.forceMiss)
        rt.forceNextMiss();

    FaultInjector inj(spec);
    cpu.setFaultPort(&inj);

    Tracer local(1 << 14);
    Tracer *tr = opts.trace ? opts.trace : &local;
    if (!opts.trace)
        local.setKindMask(Tracer::maskFor("fault") |
                          Tracer::maskFor("checkpoint"));

    prof::BlockProfiler profiler(g.program);
    TaskStats ts;
    bool trapped = false;
    {
        ScopedTracer st(*tr);
        prof::ScopedProfiler sp(profiler);
        try {
            ts = rt.runTask();
        } catch (const std::exception &e) {
            // Wild PC / bad encoding: a machine check. A real system
            // enters the same missed-checkpoint recovery, so this
            // counts as watchdog-path detection (see header).
            trapped = true;
            res.report = std::string("trap: ") + e.what();
        }
    }
    cpu.setFaultPort(nullptr);
    res.fault = inj.record();
    res.restarts = rt.stats().restarts;

    if (res.fault.fired) {
        // Join the corruption site to its basic block (PR 7 profiles).
        for (const prof::BlockProfileEntry &b : profiler.blocks()) {
            if (res.fault.pc >= b.pc &&
                res.fault.pc < b.pc + static_cast<Addr>(4 * b.words)) {
                res.blockPc = b.pc;
                res.blockEntries = b.entries;
                break;
            }
        }
    }

    if (!trapped) {
        res.completionSeconds = ts.completionSeconds;
        res.deadlineMet = ts.deadlineMet;
        res.checksum = ts.checksum;
    }

    if (!res.fault.fired && !trapped) {
        res.outcome = InjectOutcome::NoTrigger;
        return res;
    }

    // The plain twin (no AET instrumentation — cycle-counter reads
    // legitimately differ across pipelines) carries its own injector,
    // re-triggered inside the plain run's dynamic length. Built on
    // first use; shared by the paired-core vote and the lockstep
    // checker.
    GenParams pp = gp;
    pp.instrument = false;
    std::unique_ptr<GeneratedProgram> plainTwin;
    FaultSpec pspec = spec;
    const auto plain = [&]() -> const GeneratedProgram & {
        if (!plainTwin) {
            plainTwin =
                std::make_unique<GeneratedProgram>(generate(seed, pp));
            const Golden pg = goldenRun(plainTwin->program);
            pspec.triggerInstr =
                spec.triggerInstr %
                std::max<std::uint64_t>(1, pg.insts);
        }
        return *plainTwin;
    };

    // ---- paired-core vote (spare core, boundary-state compare) ----
    // Runs on every fired fault (not only watchdog escapes) so its
    // coverage is comparable against both detectors.
    if (opts.pairedCheck) {
        const Program &twin = plain().program;    // resolves pspec
        FaultInjector pairedInj(pspec);
        const chip::PairedCheckResult pc = chip::runPairedCheck(
            twin, &pairedInj, 4 * opts.maxInstructions);
        res.pairedChecked = true;
        res.pairedDetected = pc.detected;
    }

    if (trapped || ts.missedCheckpoint) {
        res.outcome = InjectOutcome::DetectedWatchdog;
        const Cycles fire = watchdogFireCycle(*tr, res.fault.cycle);
        if (fire > res.fault.cycle)
            res.detectionLatencyCycles = fire - res.fault.cycle;
        tr->record(EventKind::FaultDetect, fire ? fire : res.fault.cycle,
                   0, static_cast<std::uint64_t>(cls),
                   res.detectionLatencyCycles);
        return res;
    }

    // ---- phase B: architectural lockstep on the plain variant ----
    const Program &twin = plain().program;
    FaultInjector pinj(pspec);

    LockstepOptions lo;
    lo.maxInstructions = opts.maxInstructions;
    lo.prepareComplex = [&](OooCpu &c) { c.setFaultPort(&pinj); };
    bool caught = false;
    try {
        const LockstepResult lr = runLockstep(twin, lo);
        res.lockstepInstructions = lr.instructions;
        if (!lr.equivalent) {
            caught = true;
            res.report = lr.report;
        }
    } catch (const std::exception &e) {
        caught = true;    // the candidate trapped; the reference did not
        res.report = std::string("lockstep trap: ") + e.what();
    }
    if (caught) {
        res.outcome = InjectOutcome::DetectedLockstep;
        tr->record(EventKind::FaultDetect, res.fault.cycle, 1,
                   static_cast<std::uint64_t>(cls), 0);
        return res;
    }

    const bool corrupt = !ts.checksumReported ||
                         ts.checksum != res.goldenChecksum ||
                         !ts.deadlineMet;
    res.outcome = corrupt ? InjectOutcome::SilentCorruption
                          : InjectOutcome::SilentBenign;
    return res;
}

const char *
injectOutcomeName(InjectOutcome o)
{
    switch (o) {
      case InjectOutcome::NoTrigger:         return "no-trigger";
      case InjectOutcome::DetectedWatchdog:  return "watchdog";
      case InjectOutcome::DetectedLockstep:  return "lockstep";
      case InjectOutcome::SilentBenign:      return "silent-benign";
      case InjectOutcome::SilentCorruption:  return "silent-corruption";
    }
    return "?";
}

void
InjectClassCoverage::add(const InjectRunResult &r)
{
    ++programs;
    if (r.fault.fired)
        ++fired;
    restarts += static_cast<std::uint64_t>(r.restarts);
    switch (r.outcome) {
      case InjectOutcome::NoTrigger:
        ++noTrigger;
        break;
      case InjectOutcome::DetectedWatchdog:
        ++watchdog;
        if (r.detectionLatencyCycles) {
            if (!latencyMin || r.detectionLatencyCycles < latencyMin)
                latencyMin = r.detectionLatencyCycles;
            latencyMax = std::max(latencyMax, r.detectionLatencyCycles);
            latencySum += static_cast<double>(r.detectionLatencyCycles);
        }
        break;
      case InjectOutcome::DetectedLockstep:
        ++lockstep;
        break;
      case InjectOutcome::SilentBenign:
        ++silentBenign;
        break;
      case InjectOutcome::SilentCorruption:
        ++silentCorruption;
        break;
    }
    if (r.pairedChecked) {
        ++pairedChecked;
        if (r.pairedDetected)
            ++pairedDetected;
    }
    if (r.fault.fired && r.deadlineSeconds > 0 &&
        r.completionSeconds > 0) {
        const double frac = r.completionSeconds / r.deadlineSeconds;
        deadlineFracSum += frac;
        deadlineFracMax = std::max(deadlineFracMax, frac);
    }
}

InjectCampaignResult
runInjectCampaign(std::uint64_t first_seed, std::uint64_t count,
                  const std::vector<FaultClass> &classes,
                  const InjectRunOptions &opts,
                  void (*progress)(std::uint64_t, std::uint64_t))
{
    InjectCampaignResult res;
    if (classes.empty())
        return res;
    res.classes.resize(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c)
        res.classes[c].cls = classes[c];

    constexpr std::uint64_t batch = 256;
    for (std::uint64_t base = 0; base < count; base += batch) {
        const std::size_t n =
            static_cast<std::size_t>(std::min(batch, count - base));
        std::vector<InjectRunResult> runs(n);
        parallelFor(n, [&](std::size_t i) {
            const std::uint64_t index = base + i;
            runs[i] = runInjectProgram(
                first_seed + index,
                classes[static_cast<std::size_t>(index %
                                                 classes.size())],
                opts);
        });
        // Sequential merge in scan order: tables and escapes are
        // deterministic for any thread count.
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t index = base + i;
            res.classes[static_cast<std::size_t>(index %
                                                 classes.size())]
                .add(runs[i]);
            if (runs[i].outcome == InjectOutcome::SilentCorruption)
                res.escapes.push_back(std::move(runs[i]));
        }
        res.programs += n;
        if (progress)
            progress(res.programs, count);
    }
    return res;
}

std::string
formatCoverageTable(const InjectCampaignResult &res)
{
    bool paired = false;
    for (const InjectClassCoverage &c : res.classes)
        paired = paired || c.pairedChecked > 0;

    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-14s %7s %7s %9s %9s %8s %7s %10s %12s %9s",
                  "class", "runs", "fired", "watchdog", "lockstep",
                  "benign", "sdc", "no-trig", "latency-avg",
                  "ddl-max");
    out += line;
    if (paired) {
        std::snprintf(line, sizeof(line), " %13s", "paired");
        out += line;
    }
    out += '\n';
    for (const InjectClassCoverage &c : res.classes) {
        const std::uint64_t lat_n = c.watchdog;
        const double lat_avg =
            lat_n && c.latencySum > 0
                ? c.latencySum / static_cast<double>(lat_n)
                : 0.0;
        std::snprintf(
            line, sizeof(line),
            "%-14s %7llu %7llu %9llu %9llu %8llu %7llu %10llu %12.0f %9.3f",
            faultClassName(c.cls),
            static_cast<unsigned long long>(c.programs),
            static_cast<unsigned long long>(c.fired),
            static_cast<unsigned long long>(c.watchdog),
            static_cast<unsigned long long>(c.lockstep),
            static_cast<unsigned long long>(c.silentBenign),
            static_cast<unsigned long long>(c.silentCorruption),
            static_cast<unsigned long long>(c.noTrigger), lat_avg,
            c.deadlineFracMax);
        out += line;
        if (paired) {
            std::snprintf(
                line, sizeof(line), " %6llu/%-6llu",
                static_cast<unsigned long long>(c.pairedDetected),
                static_cast<unsigned long long>(c.pairedChecked));
            out += line;
        }
        out += '\n';
    }
    return out;
}

} // namespace visa::verify
