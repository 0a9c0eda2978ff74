/**
 * @file
 * Shared helpers for the test suite: assemble-and-run harnesses for
 * both pipelines, a scoped VISA_THREADS override and the FNV-1a digest
 * the output pins fold their results into.
 */

#ifndef VISA_TESTS_TEST_UTIL_HH
#define VISA_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>

#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "isa/assembler.hh"
#include "mem/memctrl.hh"
#include "mem/memory.hh"
#include "mem/platform.hh"
#include "sim/builder.hh"

namespace visa::test
{

/**
 * A fully wired machine around one assembled source, built through
 * SimBuilder (the same construction path the tools use).
 */
template <typename CpuT>
struct Machine
{
    explicit Machine(const std::string &source)
        : sim(SimBuilder()
                  .source(source)
                  .cpu(std::is_same_v<CpuT, SimpleCpu>
                           ? CpuKind::Simple
                           : CpuKind::Complex)
                  .build()),
          prog(sim->program()), mem(sim->mem()),
          platform(sim->platform()), memctrl(sim->memctrl()),
          cpu(static_cast<CpuT *>(&sim->cpu()))
    {
    }

    RunResult
    run(Cycles budget = noCycleLimit)
    {
        return cpu->run(budget);
    }

    Word
    intReg(int r) const
    {
        return cpu->arch().readInt(r);
    }

    double
    fpReg(int r) const
    {
        return cpu->arch().fpRegs[static_cast<std::size_t>(r)];
    }

    std::unique_ptr<Sim> sim;
    const Program &prog;
    MainMemory &mem;
    Platform &platform;
    MemController &memctrl;
    CpuT *cpu;
};

using SimpleMachine = Machine<SimpleCpu>;
using OooMachine = Machine<OooCpu>;

/** Set VISA_THREADS (unset it for nullptr) for one scope; restores the
 *  prior value. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(const char *value)
    {
        if (const char *prev = std::getenv("VISA_THREADS")) {
            had_ = true;
            saved_ = prev;
        }
        if (value)
            setenv("VISA_THREADS", value, 1);
        else
            unsetenv("VISA_THREADS");
    }
    ~ScopedThreads()
    {
        if (had_)
            setenv("VISA_THREADS", saved_.c_str(), 1);
        else
            unsetenv("VISA_THREADS");
    }
    ScopedThreads(const ScopedThreads &) = delete;
    ScopedThreads &operator=(const ScopedThreads &) = delete;

  private:
    bool had_ = false;
    std::string saved_;
};

/** 64-bit FNV-1a, folded incrementally. */
class Fnv1a
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }

    void text(const std::string &s) { bytes(s.data(), s.size()); }

    /** Fold @p v as eight little-endian bytes. */
    void
    u64(std::uint64_t v)
    {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        bytes(b, 8);
    }

    /** Fold @p v as decimal text plus a separator. */
    void integer(std::int64_t v) { text(std::to_string(v) + ";"); }

    /** Fold @p v as "%.17g" plus a separator (round-trip exact). */
    void
    real(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g;", v);
        text(buf);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace visa::test

#endif // VISA_TESTS_TEST_UTIL_HH
