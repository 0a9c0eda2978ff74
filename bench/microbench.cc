/**
 * @file
 * google-benchmark microbenchmarks of the infrastructure itself:
 * assembler throughput, raw MainMemory access, simulator speed of both
 * pipelines (per simulated instruction/cycle; the complex pipeline
 * also per C-lab kernel), machine construction
 * (a bare rig and SimBuilder's Sim), the VisaTimer recurrence, the
 * WCET analyzer, the frequency-speculation solver (an early-exit
 * solve, a full infeasible scan and set-up's bisection), and the fuzz
 * campaign's fixed cost per generated program (generation alone, and
 * generation plus the lockstep check).
 */

#include <benchmark/benchmark.h>

#include <map>
#include <mutex>

#include "core/experiment.hh"
#include "cpu/rig.hh"
#include "cpu/visa_timing.hh"
#include "isa/assembler.hh"
#include "sim/builder.hh"
#include "verify/lockstep.hh"
#include "verify/progen.hh"

using namespace visa;

namespace
{

const Workload &
cachedWorkload(const std::string &name)
{
    // Guarded: benchmark bodies may run while campaign code elsewhere
    // in the process uses the pool, and future benchmarks may be
    // multi-threaded themselves.
    static std::mutex m;
    static std::map<std::string, Workload> cache;
    std::lock_guard<std::mutex> lock(m);
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, makeWorkload(name)).first;
    return it->second;
}

void
BM_AssembleMm(benchmark::State &state)
{
    std::string src = makeMm().source;
    for (auto _ : state) {
        Program p = assemble(src);
        benchmark::DoNotOptimize(p.text.data());
    }
}
BENCHMARK(BM_AssembleMm);

// ---- raw MainMemory throughput (the tentpole fast path) ----

void
BM_MemoryRead(benchmark::State &state)
{
    MainMemory mem;
    for (Addr a = 0; a < 64 * 1024; a += 4)
        mem.writeWord(a, a);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        for (Addr a = 0; a < 64 * 1024; a += 4)
            sum += mem.read(a, 4);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * (64 * 1024 / 4));
}
BENCHMARK(BM_MemoryRead);

void
BM_MemoryWrite(benchmark::State &state)
{
    MainMemory mem;
    for (auto _ : state) {
        for (Addr a = 0; a < 64 * 1024; a += 4)
            mem.write(a, a, 4);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * (64 * 1024 / 4));
}
BENCHMARK(BM_MemoryWrite);

void
BM_MemoryReadCrossPage(benchmark::State &state)
{
    // Every access straddles a 4 KB page boundary: the slow path.
    MainMemory mem;
    for (Addr a = 0; a < 64 * 1024; a += 4)
        mem.writeWord(a, a);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        for (Addr a = 4094; a < 60 * 1024; a += 4096)
            sum += mem.read(a, 4);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 14);
}
BENCHMARK(BM_MemoryReadCrossPage);

void
BM_MemoryBulkWrite(benchmark::State &state)
{
    // Page-split memcpy path (writeBytes), 16 KB per pass.
    MainMemory mem;
    std::vector<std::uint8_t> buf(16 * 1024, 0xA5);
    for (auto _ : state) {
        mem.writeBytes(100, buf.data(), buf.size());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16 * 1024);
}
BENCHMARK(BM_MemoryBulkWrite);

void
BM_LoadProgram(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("mm");
    MainMemory mem;
    for (auto _ : state) {
        mem.clear();
        mem.loadProgram(wl.program);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_LoadProgram);

// ---- raw functional-execution throughput (fetch/decode fast path) ----

/** Step the functional core through mm to HALT, once per iteration. */
void
stepMmToHalt(benchmark::State &state, bool block_cache)
{
    const Workload &wl = cachedWorkload("mm");
    MainMemory mem;
    mem.loadProgram(wl.program);
    Platform platform;
    ExecCore core(wl.program, mem, platform);
    core.setBlockCacheEnabled(block_cache);
    std::int64_t insts = 0;
    for (auto _ : state) {
        core.reset();
        ExecInfo info;
        do {
            info = core.step(false);
            ++insts;
        } while (!info.halted);
        benchmark::DoNotOptimize(core.state().pc);
    }
    state.SetItemsProcessed(insts);
}

void
BM_ExecCoreStep(benchmark::State &state)
{
    // The step() loop both pipelines run, through the block cache.
    stepMmToHalt(state, true);
}
BENCHMARK(BM_ExecCoreStep)->Unit(benchmark::kMillisecond);

void
BM_ExecCoreStepUncached(benchmark::State &state)
{
    // The --no-block-cache path: per-instruction fetch/decode-dispatch.
    // The delta against BM_ExecCoreStep is the translation cache's win.
    stepMmToHalt(state, false);
}
BENCHMARK(BM_ExecCoreStepUncached)->Unit(benchmark::kMillisecond);

void
BM_VisaTimerRecurrence(benchmark::State &state)
{
    TimingRecord rec;
    rec.exLatency = 1;
    VisaTimer timer;
    timer.reset();
    for (auto _ : state) {
        timer.consume(rec);
        benchmark::DoNotOptimize(timer);
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(timer.totalCycles());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VisaTimerRecurrence);

void
BM_SimpleCpuRun(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("mm");
    std::int64_t insts = 0;
    for (auto _ : state) {
        Rig rig(wl.program);
        SimpleCpu &cpu = rig.build<SimpleCpu>();
        cpu.run(20'000'000'000ULL);
        insts += static_cast<std::int64_t>(cpu.retired());
        benchmark::DoNotOptimize(cpu.cycles());
    }
    state.SetItemsProcessed(insts);    // guest instructions/second
}
BENCHMARK(BM_SimpleCpuRun)->Unit(benchmark::kMillisecond);

void
BM_OooCpuRun(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("mm");
    for (auto _ : state) {
        Rig rig(wl.program);
        OooCpu &cpu = rig.build<OooCpu>();
        cpu.run(20'000'000'000ULL);
        benchmark::DoNotOptimize(cpu.cycles());
    }
}
BENCHMARK(BM_OooCpuRun)->Unit(benchmark::kMillisecond);

void
BM_OooCpuSimpleMode(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("mm");
    for (auto _ : state) {
        Rig rig(wl.program);
        OooCpu &cpu = rig.build<OooCpu>(std::nullopt, true);
        cpu.run(20'000'000'000ULL);
        benchmark::DoNotOptimize(cpu.cycles());
    }
}
BENCHMARK(BM_OooCpuSimpleMode)->Unit(benchmark::kMillisecond);

/**
 * Complex mode to halt on one kernel from a fresh rig, per retired
 * instruction: registered once per name in allWorkloadNames(), so the
 * kernels' ns/inst can be compared with each other.
 */
void
BM_OooCpuKernel(benchmark::State &state, const std::string &name)
{
    const Workload &wl = cachedWorkload(name);
    std::int64_t insts = 0;
    for (auto _ : state) {
        Rig rig(wl.program);
        OooCpu &cpu = rig.build<OooCpu>();
        cpu.run(20'000'000'000ULL);
        insts += static_cast<std::int64_t>(cpu.retired());
        benchmark::DoNotOptimize(cpu.cycles());
    }
    state.SetItemsProcessed(insts);    // guest instructions/second
}
[[maybe_unused]] const bool oooKernelsRegistered = [] {
    for (const std::string &name : allWorkloadNames())
        benchmark::RegisterBenchmark(("BM_OooCpuKernel/" + name).c_str(),
                                     BM_OooCpuKernel, name)
            ->Unit(benchmark::kMicrosecond);
    return true;
}();

// ---- machine construction ----

/** One rig around mm: image load, pipeline construction and reset. */
template <typename CpuT>
void
BM_RigBuild(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("mm");
    for (auto _ : state) {
        Rig rig(wl.program);
        benchmark::DoNotOptimize(&rig.build<CpuT>());
    }
}
BENCHMARK_TEMPLATE(BM_RigBuild, SimpleCpu)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_RigBuild, OooCpu)->Unit(benchmark::kMicrosecond);

/** The same machine through SimBuilder's single-core Sim. */
template <typename CpuT>
void
BM_SimBuild(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("mm");
    for (auto _ : state) {
        auto sim = SimBuilder()
                       .program(wl.program)
                       .cpu(std::is_same_v<CpuT, SimpleCpu>
                                ? CpuKind::Simple
                                : CpuKind::Complex)
                       .build();
        benchmark::DoNotOptimize(sim.get());
    }
}
BENCHMARK_TEMPLATE(BM_SimBuild, SimpleCpu)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SimBuild, OooCpu)->Unit(benchmark::kMicrosecond);

void
BM_WcetAnalyze(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("fft");
    WcetAnalyzer an(wl.program);
    for (auto _ : state) {
        WcetReport rep = an.analyze(1000);
        benchmark::DoNotOptimize(rep.taskCycles);
    }
}
BENCHMARK(BM_WcetAnalyze)->Unit(benchmark::kMillisecond);

void
BM_WcetAnalyzerConstruction(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("adpcm");
    for (auto _ : state) {
        WcetAnalyzer an(wl.program);
        benchmark::DoNotOptimize(an.numSubtasks());
    }
}
BENCHMARK(BM_WcetAnalyzerConstruction)->Unit(benchmark::kMillisecond);

/** What set-up pays per program: the 37-point table, D-miss padded. */
void
BM_WcetTable(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("adpcm");
    WcetAnalyzer an(wl.program);
    const DvsTable dvs;
    const DMissProfile dmiss = profileDataMisses(wl.program);
    for (auto _ : state) {
        WcetTable wcet(an, dvs, &dmiss);
        benchmark::DoNotOptimize(wcet.taskCycles(dvs.maxFreq()));
    }
}
BENCHMARK(BM_WcetTable)->Unit(benchmark::kMillisecond);

void
BM_FreqSpecSolver(benchmark::State &state)
{
    const KernelAnalysis a("lms");
    PetEstimator pets(a.wl.numSubtasks, PetPolicy{});
    pets.seed(profileComplexAets(a.wl.program, a.wl.numSubtasks));
    double deadline = a.wcet.taskSeconds(700);
    for (auto _ : state) {
        FreqPair p = solveVisaSpeculation(a.wcet, pets, a.dvs, deadline,
                                          experimentOvhdSeconds, 1000);
        benchmark::DoNotOptimize(p.fSpec);
    }
}
BENCHMARK(BM_FreqSpecSolver);

/** Worst case: a deadline no pair meets, so all 703 pairs are tried. */
void
BM_FreqSpecSolverInfeasible(benchmark::State &state)
{
    const KernelAnalysis a("lms");
    PetEstimator pets(a.wl.numSubtasks, PetPolicy{});
    pets.seed(profileComplexAets(a.wl.program, a.wl.numSubtasks));
    double deadline = 0.5 * a.wcet.taskSeconds(a.dvs.maxFreq());
    for (auto _ : state) {
        FreqPair p = solveVisaSpeculation(a.wcet, pets, a.dvs, deadline,
                                          experimentOvhdSeconds, 1000);
        benchmark::DoNotOptimize(p.feasible);
    }
}
BENCHMARK(BM_FreqSpecSolverInfeasible);

/**
 * What set-up pays per analysed program for its deadline: the 48-step
 * EQ 4 bisection, on the 2-sub-task instrumented Memory-profile
 * generated program shape the fuzz campaign analyses.
 */
void
BM_FreqSpecBisection(benchmark::State &state)
{
    verify::GenParams params;
    params.profile = verify::GenProfile::Memory;
    params.instrument = true;
    params.allowCalls = false;
    const verify::GeneratedProgram g = verify::generate(1, params);
    WcetAnalyzer an(g.program);
    DvsTable dvs;
    DMissProfile dmiss = profileDataMisses(g.program);
    WcetTable wcet(an, dvs, &dmiss);
    const RuntimeConfig cfg = experimentRuntimeConfig();
    const std::vector<std::uint64_t> pet_seed =
        profileComplexAets(g.program, params.subtasks);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            minGuaranteeableDeadline(wcet, dvs, pet_seed, cfg));
}
BENCHMARK(BM_FreqSpecBisection);

// ---- the fuzz campaign's cost per generated program ----

constexpr verify::GenProfile kGenProfiles[] = {
    verify::GenProfile::Alu, verify::GenProfile::Branch,
    verify::GenProfile::Memory, verify::GenProfile::Mixed};

/** Generate (source and program) one plain program of @p profile. */
void
BM_ProgenGenerate(benchmark::State &state, verify::GenProfile profile)
{
    verify::GenParams params;
    params.profile = profile;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        const verify::GeneratedProgram g = verify::generate(++seed, params);
        benchmark::DoNotOptimize(g.program.words.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(seed));  // programs
}
[[maybe_unused]] const bool progenRegistered = [] {
    for (verify::GenProfile p : kGenProfiles)
        benchmark::RegisterBenchmark(
            ("BM_ProgenGenerate/" + std::string(verify::profileName(p)))
                .c_str(),
            BM_ProgenGenerate, p)
            ->Unit(benchmark::kMicrosecond);
    return true;
}();

/**
 * One fuzz_verify unit: generate a plain program and lockstep-check
 * both pipelines on it, the profiles in rotation as the benchmark's
 * round draws them.
 */
void
BM_FuzzUnit(benchmark::State &state)
{
    std::uint64_t n = 0;
    for (auto _ : state) {
        verify::GenParams params;
        params.profile = kGenProfiles[n % std::size(kGenProfiles)];
        const verify::GeneratedProgram g = verify::generate(++n, params);
        const verify::LockstepResult r = verify::runLockstep(g.program);
        benchmark::DoNotOptimize(r.instructions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));  // programs
}
BENCHMARK(BM_FuzzUnit)->Unit(benchmark::kMicrosecond);

} // anonymous namespace

BENCHMARK_MAIN();
