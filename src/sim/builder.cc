#include "sim/builder.hh"

#include "isa/assembler.hh"
#include "sim/logging.hh"

namespace visa
{

Sim::Sim(std::unique_ptr<Program> ownedProg,
         std::unique_ptr<Workload> workload, const Program &prog)
    : ownedProg_(std::move(ownedProg)), workload_(std::move(workload)),
      rig_(prog)
{
}

Sim::~Sim() = default;

DvsRuntime &
Sim::runtime()
{
    if (!runtime_)
        fatal("Sim: no runtime was requested at build time");
    return *runtime_;
}

SimBuilder::SimBuilder() = default;

SimBuilder &
SimBuilder::program(const Program &prog)
{
    prog_ = &prog;
    ownedProg_.reset();
    workload_.reset();
    return *this;
}

SimBuilder &
SimBuilder::program(Program &&prog)
{
    ownedProg_ = std::make_unique<Program>(std::move(prog));
    workload_.reset();
    prog_ = ownedProg_.get();
    return *this;
}

SimBuilder &
SimBuilder::source(const std::string &assembly)
{
    return program(assemble(assembly));
}

SimBuilder &
SimBuilder::workload(const std::string &name)
{
    workload_ = std::make_unique<Workload>(makeWorkload(name));
    ownedProg_.reset();
    prog_ = &workload_->program;
    return *this;
}

SimBuilder &
SimBuilder::cpu(CpuKind kind)
{
    cpuKind_ = kind;
    cpuKindSet_ = true;
    return *this;
}

SimBuilder &
SimBuilder::frequency(MHz f)
{
    freq_ = f;
    return *this;
}

SimBuilder &
SimBuilder::cores(int n)
{
    if (n < 1)
        fatal("SimBuilder: cores(%d): a chip has at least one core", n);
    cores_ = n;
    return *this;
}

SimBuilder &
SimBuilder::runtime(RuntimeKind kind, const WcetTable &wcet,
                    const DvsTable &dvs, RuntimeConfig cfg)
{
    runtimeKind_ = kind;
    wcet_ = &wcet;
    dvs_ = &dvs;
    runtimeCfg_ = cfg;
    return *this;
}

CpuKind
SimBuilder::resolveKind() const
{
    if (runtimeKind_ == RuntimeKind::Visa) {
        if (cpuKindSet_ && cpuKind_ != CpuKind::Complex)
            fatal("SimBuilder: the VISA runtime needs the complex "
                  "pipeline");
        return CpuKind::Complex;
    }
    if (runtimeKind_ == RuntimeKind::SimpleFixed) {
        if (cpuKindSet_ && cpuKind_ != CpuKind::Simple)
            fatal("SimBuilder: the simple-fixed runtime needs the "
                  "simple pipeline");
        return CpuKind::Simple;
    }
    return cpuKind_;
}

const Program &
SimBuilder::requireProgram() const
{
    if (!prog_)
        fatal("SimBuilder: no program (use program/source/workload)");
    return *prog_;
}

void
SimBuilder::buildPipeline(Rig &rig, CpuKind kind) const
{
    if (kind == CpuKind::Simple)
        rig.build<SimpleCpu>(std::nullopt, false, freq_);
    else
        rig.build<OooCpu>(std::nullopt, kind == CpuKind::ComplexSimpleMode,
                          freq_);
}

std::unique_ptr<Sim>
SimBuilder::build()
{
    if (cores_ > 1)
        fatal("SimBuilder: build() makes the single-core Sim; use "
              "buildChip() for %d cores",
              cores_);
    const CpuKind kind = resolveKind();
    const Program &prog = requireProgram();

    // Sim has a private ctor; tie the ownership transfer together.
    std::unique_ptr<Sim> sim(
        new Sim(std::move(ownedProg_), std::move(workload_), prog));
    buildPipeline(sim->rig_, kind);
    if (runtimeKind_ == RuntimeKind::Visa)
        sim->runtime_ = std::make_unique<VisaComplexRuntime>(
            sim->ooo(), prog, sim->mem(), *wcet_, *dvs_, runtimeCfg_);
    else if (runtimeKind_ == RuntimeKind::SimpleFixed)
        sim->runtime_ = std::make_unique<SimpleFixedRuntime>(
            sim->simple(), prog, sim->mem(), *wcet_, *dvs_, runtimeCfg_);
    return sim;
}

std::unique_ptr<chip::Chip>
SimBuilder::buildChip()
{
    if (runtimeKind_ != RuntimeKind::None)
        fatal("SimBuilder: buildChip() builds the bare chip; runtimes "
              "are attached per core on top (use build() for the "
              "single-runtime machine)");
    const CpuKind kind = resolveKind();
    auto built = std::make_unique<chip::Chip>(requireProgram(), cores_);
    built->adoptProgram(std::move(ownedProg_), std::move(workload_));
    for (int i = 0; i < built->numCores(); ++i)
        buildPipeline(built->core(i), kind);
    return built;
}

} // namespace visa
