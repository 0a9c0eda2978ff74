/**
 * @file
 * SimBuilder: the one way to wire a simulated machine. Every harness
 * used to hand-assemble the same four-element rig (MainMemory,
 * Platform, MemController, a pipeline) plus an optional DVS runtime,
 * each getting the construction order and reset dance subtly right;
 * the builder centralizes that into a fluent API:
 *
 *   auto sim = SimBuilder().workload("cnt").cpu(CpuKind::Complex)
 *                  .runtime(RuntimeKind::Visa, wcet, dvs, cfg)
 *                  .build();
 *   sim->runtime().runTask();
 *
 * The construction target is a Chip (src/chip): N cores — each with
 * its own Platform (watchdog + DVS domain) and SimpleCpu/OooCpu pair
 * — in front of one shared MainMemory and a banked bus + shared L2.
 * cores(1) (the default) is the historical single-core rig,
 * bit-identical: the bus is only attached with two or more cores.
 *
 *   auto chip = SimBuilder().workload("cnt").cpu(CpuKind::Complex)
 *                   .cores(4).buildChip();
 *   chip->runAll(budget);
 *
 * build() wraps the chip in a Sim: the core-0 veneer every tool and
 * test drives (cpu()/ooo()/simple()/runtime() are core 0), with the
 * other cores reachable through chip(). The Sim owns the whole rig —
 * and the program, when built from source text or a named workload —
 * so lifetime mistakes (a CPU outliving its memory, a program freed
 * under the analyzer) cannot be expressed.
 */

#ifndef VISA_SIM_BUILDER_HH
#define VISA_SIM_BUILDER_HH

#include <memory>
#include <string>

#include "chip/chip.hh"
#include "core/runtime.hh"
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
 * A fully wired machine: a Chip plus the core-0 accessors the
 * single-core harnesses drive. Not movable: CPUs and runtimes hold
 * references into the chip.
 */
class Sim
{
  public:
    ~Sim();
    Sim(const Sim &) = delete;
    Sim &operator=(const Sim &) = delete;

    const Program &program() const { return chip_->program(); }
    /** The built workload, or nullptr unless workload() was used. */
    const Workload *workload() const { return chip_->workload(); }

    /** The whole chip (core 0 is the veneer below). */
    chip::Chip &chip() { return *chip_; }

    // Core 0's image, not the chip's: on a multi-core chip each core
    // runs on a private memory replica, and the runtimes this builder
    // wires up must observe the image core 0 actually executes on.
    MainMemory &mem() { return chip_->core(0).mem(); }
    Platform &platform() { return chip_->core(0).platform(); }
    MemController &memctrl() { return chip_->core(0).memctrl(); }

    Cpu &cpu() { return *cpu_; }
    /** The pipeline as its concrete type; fatal on a kind mismatch. */
    OooCpu &ooo();
    SimpleCpu &simple();

    bool hasRuntime() const { return runtime_ != nullptr; }
    /** The DVS runtime; fatal unless one was requested. */
    DvsRuntime &runtime();

  private:
    friend class SimBuilder;
    Sim() = default;

    std::unique_ptr<chip::Chip> chip_;
    Cpu *cpu_ = nullptr;            ///< core 0's primary pipeline
    OooCpu *ooo_ = nullptr;
    SimpleCpu *simple_ = nullptr;
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
     * Enable or disable the functional core's basic-block translation
     * cache for the built pipelines. Defaults to the process-wide
     * default (ExecCore::blockCacheDefault, flipped by the tools'
     * --no-block-cache flag); both settings are architecturally
     * identical, so this is an escape hatch and differential knob.
     */
    SimBuilder &blockCache(bool on);

    /**
     * Chip width: @p n cores in front of the shared bus + L2. One
     * core (the default) keeps the historical private-channel memory
     * model; two or more attach every core's MemController to the
     * chip bus.
     */
    SimBuilder &cores(int n);
    /** Bus/L2/MSHR-pool geometry for multi-core chips. */
    SimBuilder &chipBus(const chip::ChipBusParams &params);

    /**
     * Attach a DVS runtime (to core 0). The runtime dictates the
     * pipeline (Visa -> Complex, SimpleFixed -> Simple); an explicit
     * incompatible cpu() choice is fatal at build(). @p wcet, @p dvs
     * must outlive the Sim; the runtime's deadline and speculation
     * knobs ride in @p cfg.
     */
    SimBuilder &runtime(RuntimeKind kind, const WcetTable &wcet,
                        const DvsTable &dvs, RuntimeConfig cfg);

    /**
     * Wire everything (load memory, construct core 0's pipeline,
     * reset it for the first task, apply the frequency, attach the
     * runtime) and wrap the chip in its Sim veneer. Single-shot: the
     * builder's program ownership moves into the Sim. With cores(n > 1)
     * core 0's complex-mode misses go over the chip bus, which routes
     * only inside an epoch: bracket a direct run of core 0 with
     * chip().bus().beginEpoch()/drainEpoch(), as visa-prof --cores does.
     */
    std::unique_ptr<Sim> build();

    /**
     * Wire the bare chip: every core gets the configured pipeline
     * kind, built with the same dance as build() applies to core 0.
     * No runtime (runtimes are per-core; attach them on top, the way
     * the multi-core scheduler does). Single-shot, like build().
     */
    std::unique_ptr<chip::Chip> buildChip();

  private:
    std::unique_ptr<chip::Chip> makeChip();
    void configureCore(chip::ChipCore &core, CpuKind kind);
    CpuKind resolveKind() const;

    std::unique_ptr<Program> ownedProg_;
    std::unique_ptr<Workload> workload_;
    const Program *prog_ = nullptr;
    CpuKind cpuKind_ = CpuKind::Simple;
    bool cpuKindSet_ = false;
    MHz freq_ = 0;
    bool blockCache_ = true;
    bool blockCacheSet_ = false;
    int cores_ = 1;
    chip::ChipBusParams busParams_;
    RuntimeKind runtimeKind_ = RuntimeKind::None;
    const WcetTable *wcet_ = nullptr;
    const DvsTable *dvs_ = nullptr;
    RuntimeConfig runtimeCfg_;
};

} // namespace visa

#endif // VISA_SIM_BUILDER_HH
