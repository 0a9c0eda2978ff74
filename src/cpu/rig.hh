/**
 * @file
 * Rig: one simulated execution domain (paper §2–3) — a private memory
 * image loaded from the program, the Platform (watchdog, cycle
 * counter, DVS registers), a MemController and exactly one pipeline.
 * Every machine the simulator runs is a Rig: SimBuilder's Sim holds
 * one, a chip holds one per core, and the verification harnesses,
 * profilers and schedulers build theirs directly.
 *
 *   Rig rig(prog);
 *   OooCpu &cpu = rig.build<OooCpu>();
 *   cpu.run(budget);
 *
 * build() wires the pipeline in one fixed order: construct it on the
 * rig's image, platform and controller; set the block-cache knob only
 * if the caller gave one (otherwise the process default,
 * ExecCore::blockCacheDefault(), stands); resetForTask(); then the
 * optional simple-mode switch and frequency. The pipeline may be any
 * Cpu subclass with the (program, memory, platform, controller)
 * constructor: SimpleCpu, OooCpu or verify::RefOooCpu. An OOO
 * pipeline other than the paper's 4-wide/128 takes its OooParams:
 *
 *   rig.build<OooCpu>(std::nullopt, false, 0, params);
 *
 * A machine with another memory system assigns the controller before
 * build(): `rig.memctrl() = MemController(params);`.
 */

#ifndef VISA_CPU_RIG_HH
#define VISA_CPU_RIG_HH

#include <memory>
#include <optional>
#include <type_traits>

#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "mem/memctrl.hh"
#include "mem/memory.hh"
#include "mem/platform.hh"
#include "sim/logging.hh"

namespace visa
{

class Rig
{
  public:
    /** Load @p prog, which must outlive the rig, into a fresh image. */
    explicit Rig(const Program &prog);
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /**
     * Build the rig's one pipeline (fatal if it already has one).
     * @param blockCache the block-cache knob; unset keeps the process
     *        default
     * @param simpleMode lock an OooCpu into simple mode after reset
     * @param freq initial clock; 0 keeps the pipeline's reset frequency
     * @param params the pipeline's remaining constructor arguments:
     *        none, or an OOO pipeline's OooParams
     */
    template <typename CpuT, typename... Params>
    CpuT &
    build(std::optional<bool> blockCache = std::nullopt,
          bool simpleMode = false, MHz freq = 0, const Params &...params)
    {
        if (cpu_)
            fatal("Rig: the pipeline is already built");
        auto cpu = std::make_unique<CpuT>(prog_, mem_, platform_,
                                          memctrl_, params...);
        CpuT &built = *cpu;
        cpu_ = std::move(cpu);
        if constexpr (std::is_same_v<CpuT, OooCpu>)
            ooo_ = &built;
        if constexpr (std::is_same_v<CpuT, SimpleCpu>)
            simple_ = &built;
        configure(blockCache, simpleMode, freq);
        return built;
    }

    const Program &program() const { return prog_; }
    MainMemory &mem() { return mem_; }
    Platform &platform() { return platform_; }
    MemController &memctrl() { return memctrl_; }

    /** The pipeline; build() must have run. */
    Cpu &cpu() { return *cpu_; }
    /** The pipeline as its concrete type; fatal on a kind mismatch. */
    OooCpu &ooo();
    SimpleCpu &simple();

  private:
    void configure(std::optional<bool> blockCache, bool simpleMode,
                   MHz freq);

    const Program &prog_;
    // Member order is construction order: the pipeline references the
    // image, platform and controller, and is destroyed first.
    MainMemory mem_;
    Platform platform_;
    MemController memctrl_;
    std::unique_ptr<Cpu> cpu_;
    OooCpu *ooo_ = nullptr;
    SimpleCpu *simple_ = nullptr;
};

} // namespace visa

#endif // VISA_CPU_RIG_HH
