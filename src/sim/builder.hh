/**
 * @file
 * SimBuilder: the one way to wire a simulated machine around a program
 * and, optionally, a DVS runtime:
 *
 *   auto sim = SimBuilder().workload("cnt").cpu(CpuKind::Complex)
 *                  .runtime(RuntimeKind::Visa, wcet, dvs, cfg)
 *                  .build();
 *   sim->runtime().runTask();
 *
 * build() makes a Sim: one Rig (cpu/rig.hh: the program's image, a
 * Platform, a MemController and the chosen pipeline) plus the runtime.
 * buildChip() makes an N-core chip (src/chip): N rigs, each with the
 * configured pipeline, in front of one shared bus + L2:
 *
 *   auto chip = SimBuilder().workload("cnt").cpu(CpuKind::Complex)
 *                   .cores(4).buildChip();
 *   chip->runAll(budget);
 *
 * Both own the program when it was built from source text or a named
 * workload, so lifetime mistakes (a CPU outliving its memory, a
 * program freed under the analyzer) cannot be expressed.
 */

#ifndef VISA_SIM_BUILDER_HH
#define VISA_SIM_BUILDER_HH

#include <memory>
#include <string>

#include "chip/chip.hh"
#include "core/runtime.hh"
#include "cpu/rig.hh"
#include "workloads/clab.hh"

namespace visa
{

enum class CpuKind
{
    Simple,              ///< the simple-fixed in-order pipeline
    Complex,             ///< the out-of-order pipeline
    ComplexSimpleMode,   ///< OOO pipeline locked into simple mode
};

enum class RuntimeKind
{
    None,
    Visa,          ///< VisaComplexRuntime (EQ 4) on the OOO pipeline
    SimpleFixed,   ///< SimpleFixedRuntime (EQ 2) on simple-fixed
};

/**
 * A fully wired single-core machine: one rig plus its runtime. Not
 * movable: the CPU and the runtime hold references into the rig.
 */
class Sim
{
  public:
    ~Sim();
    Sim(const Sim &) = delete;
    Sim &operator=(const Sim &) = delete;

    const Program &program() const { return rig_.program(); }
    /** The built workload, or nullptr unless workload() was used. */
    const Workload *workload() const { return workload_.get(); }

    MainMemory &mem() { return rig_.mem(); }
    Platform &platform() { return rig_.platform(); }
    MemController &memctrl() { return rig_.memctrl(); }

    Cpu &cpu() { return rig_.cpu(); }
    /** The pipeline as its concrete type; fatal on a kind mismatch. */
    OooCpu &ooo() { return rig_.ooo(); }
    SimpleCpu &simple() { return rig_.simple(); }

    bool hasRuntime() const { return runtime_ != nullptr; }
    /** The DVS runtime; fatal unless one was requested. */
    DvsRuntime &runtime();

  private:
    friend class SimBuilder;
    Sim(std::unique_ptr<Program> ownedProg,
        std::unique_ptr<Workload> workload, const Program &prog);

    // Ownership slots first: the rig references the program.
    std::unique_ptr<Program> ownedProg_;
    std::unique_ptr<Workload> workload_;
    Rig rig_;
    std::unique_ptr<DvsRuntime> runtime_;
};

class SimBuilder
{
  public:
    SimBuilder();

    /** Run @p prog, which the caller keeps alive past the Sim. */
    SimBuilder &program(const Program &prog);
    /** Run @p prog, transferring ownership into the Sim. */
    SimBuilder &program(Program &&prog);
    /** Assemble @p assembly and own the result. */
    SimBuilder &source(const std::string &assembly);
    /** Build benchmark @p name (workloads/clab.hh) and own it. */
    SimBuilder &workload(const std::string &name);

    /** Pipeline choice; defaults to Simple (or to the runtime's). */
    SimBuilder &cpu(CpuKind kind);
    /** Initial clock; defaults to the pipeline's reset frequency. */
    SimBuilder &frequency(MHz f);
    /**
     * Chip width for buildChip(): @p n cores in front of the shared
     * bus + L2. One core (the default) keeps the private-channel
     * memory model; two or more attach every core's MemController to
     * the chip bus. build() makes only the single-core Sim.
     */
    SimBuilder &cores(int n);

    /**
     * Attach a DVS runtime. The runtime dictates the pipeline
     * (Visa -> Complex, SimpleFixed -> Simple); an explicit
     * incompatible cpu() choice is fatal at build(). @p wcet, @p dvs
     * must outlive the Sim; the runtime's deadline and speculation
     * knobs ride in @p cfg.
     */
    SimBuilder &runtime(RuntimeKind kind, const WcetTable &wcet,
                        const DvsTable &dvs, RuntimeConfig cfg);

    /**
     * Wire the single-core machine: load the image, build the pipeline
     * (Rig::build), attach the runtime. Single-shot: the builder's
     * program ownership moves into the Sim. Fatal with cores(n > 1).
     */
    std::unique_ptr<Sim> build();

    /**
     * Wire the bare chip: every core gets the configured pipeline
     * kind, built like build()'s. No runtime (runtimes are per-core;
     * attach them on top, the way the multi-core scheduler does).
     * Single-shot, like build().
     */
    std::unique_ptr<chip::Chip> buildChip();

  private:
    const Program &requireProgram() const;
    void buildPipeline(Rig &rig, CpuKind kind) const;
    CpuKind resolveKind() const;

    std::unique_ptr<Program> ownedProg_;
    std::unique_ptr<Workload> workload_;
    const Program *prog_ = nullptr;
    CpuKind cpuKind_ = CpuKind::Simple;
    bool cpuKindSet_ = false;
    MHz freq_ = 0;
    int cores_ = 1;
    RuntimeKind runtimeKind_ = RuntimeKind::None;
    const WcetTable *wcet_ = nullptr;
    const DvsTable *dvs_ = nullptr;
    RuntimeConfig runtimeCfg_;
};

} // namespace visa

#endif // VISA_SIM_BUILDER_HH
