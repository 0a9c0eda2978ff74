/**
 * @file
 * google-benchmark microbenchmarks of the infrastructure itself:
 * assembler throughput, raw MainMemory access, simulator speed of both
 * pipelines (per simulated instruction/cycle), the VisaTimer
 * recurrence, the WCET analyzer, and the frequency-speculation solver
 * (an early-exit solve, a full infeasible scan and set-up's bisection).
 */

#include <benchmark/benchmark.h>

#include "bench/bench_util.hh"
#include "cpu/visa_timing.hh"
#include "isa/assembler.hh"
#include "verify/progen.hh"

using namespace visa;
using namespace visa::bench;

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
BM_MemoryBulkCopy(benchmark::State &state)
{
    // Page-split memcpy path (readBytes/writeBytes), 16 KB per pass.
    MainMemory mem;
    std::vector<std::uint8_t> buf(16 * 1024, 0xA5);
    for (auto _ : state) {
        mem.writeBytes(100, buf.data(), buf.size());
        mem.readBytes(100, buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2 * 16 * 1024);
}
BENCHMARK(BM_MemoryBulkCopy);

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

void
BM_ExecCoreStep(benchmark::State &state)
{
    // Functional-core throughput via the block-granular fast path
    // (runFunctional); the per-call step() API is measured by
    // BM_ExecCoreStepUncached below and by the pipeline benchmarks.
    const Workload &wl = cachedWorkload("mm");
    MainMemory mem;
    mem.loadProgram(wl.program);
    Platform platform;
    ExecCore core(wl.program, mem, platform);
    std::int64_t insts = 0;
    for (auto _ : state) {
        core.reset();
        ExecCore::FuncRunResult r =
            core.runFunctional(20'000'000'000ULL);
        insts += static_cast<std::int64_t>(r.insts);
        benchmark::DoNotOptimize(core.state().pc);
    }
    state.SetItemsProcessed(insts);
}
BENCHMARK(BM_ExecCoreStep)->Unit(benchmark::kMillisecond);

void
BM_ExecCoreStepUncached(benchmark::State &state)
{
    // The --no-block-cache path: per-instruction fetch/decode-dispatch.
    // The delta against BM_ExecCoreStep is the translation cache's win.
    const Workload &wl = cachedWorkload("mm");
    MainMemory mem;
    mem.loadProgram(wl.program);
    Platform platform;
    ExecCore core(wl.program, mem, platform);
    core.setBlockCacheEnabled(false);
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
        Rig<SimpleCpu> rig(wl.program);
        rig.cpu->run(20'000'000'000ULL);
        insts += static_cast<std::int64_t>(rig.cpu->retired());
        benchmark::DoNotOptimize(rig.cpu->cycles());
    }
    state.SetItemsProcessed(insts);    // guest instructions/second
}
BENCHMARK(BM_SimpleCpuRun)->Unit(benchmark::kMillisecond);

void
BM_OooCpuRun(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("mm");
    for (auto _ : state) {
        Rig<OooCpu> rig(wl.program);
        rig.cpu->run(20'000'000'000ULL);
        benchmark::DoNotOptimize(rig.cpu->cycles());
    }
}
BENCHMARK(BM_OooCpuRun)->Unit(benchmark::kMillisecond);

void
BM_OooCpuSimpleMode(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("mm");
    for (auto _ : state) {
        Rig<OooCpu> rig(wl.program);
        rig.cpu->switchToSimple();
        rig.cpu->run(20'000'000'000ULL);
        benchmark::DoNotOptimize(rig.cpu->cycles());
    }
}
BENCHMARK(BM_OooCpuSimpleMode)->Unit(benchmark::kMillisecond);

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
    const Workload &wl = cachedWorkload("lms");
    WcetAnalyzer an(wl.program);
    DvsTable dvs;
    DMissProfile dmiss = profileDataMisses(wl.program);
    WcetTable wcet(an, dvs, &dmiss);
    PetEstimator pets(wl.numSubtasks, PetPolicy{});
    pets.seed(profileComplexAets(wl.program, wl.numSubtasks));
    double deadline = wcet.taskSeconds(700);
    for (auto _ : state) {
        FreqPair p = solveVisaSpeculation(wcet, pets, dvs, deadline,
                                          2e-6, 1000);
        benchmark::DoNotOptimize(p.fSpec);
    }
}
BENCHMARK(BM_FreqSpecSolver);

/** Worst case: a deadline no pair meets, so all 703 pairs are tried. */
void
BM_FreqSpecSolverInfeasible(benchmark::State &state)
{
    const Workload &wl = cachedWorkload("lms");
    WcetAnalyzer an(wl.program);
    DvsTable dvs;
    DMissProfile dmiss = profileDataMisses(wl.program);
    WcetTable wcet(an, dvs, &dmiss);
    PetEstimator pets(wl.numSubtasks, PetPolicy{});
    pets.seed(profileComplexAets(wl.program, wl.numSubtasks));
    double deadline = 0.5 * wcet.taskSeconds(dvs.maxFreq());
    for (auto _ : state) {
        FreqPair p = solveVisaSpeculation(wcet, pets, dvs, deadline,
                                          2e-6, 1000);
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
    RuntimeConfig cfg;
    cfg.ovhdSeconds = 2e-6;
    cfg.dvsSoftwareCycles = 500;
    cfg.drainBudgetCycles = 512;
    const std::vector<std::uint64_t> pet_seed =
        profileComplexAets(g.program, params.subtasks);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            minGuaranteeableDeadline(wcet, dvs, pet_seed, cfg));
}
BENCHMARK(BM_FreqSpecBisection);

} // anonymous namespace

BENCHMARK_MAIN();
