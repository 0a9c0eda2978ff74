/**
 * @file
 * Lockstep differential co-simulation of the two pipelines.
 *
 * Both processors funnel every instruction through the shared ExecCore
 * in program order (the complex pipeline executes functionally at
 * fetch with perfect squash; the in-order pipeline at commit), so an
 * ExecObserver on each rig yields two directly comparable
 * architectural streams. The checker runs both machines in bounded
 * slices, diffs the streams record by record (PC, next PC, destination
 * value, FCC, store address/data), and on completion compares the full
 * architectural state, every materialized memory page, and the
 * platform-visible outputs (checksum, console).
 *
 * A divergence report carries the first mismatching instruction, a
 * disassembled window around it, and the tail of each rig's event
 * trace (sim/trace.hh) for post-mortem debugging.
 */

#ifndef VISA_VERIFY_LOCKSTEP_HH
#define VISA_VERIFY_LOCKSTEP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "isa/program.hh"

namespace visa
{
class OooCpu;
} // namespace visa

namespace visa::verify
{

/** Checker knobs. */
struct LockstepOptions
{
    /**
     * Per-side cap on executed instructions; exceeding it without
     * halting reports a timeout, not a divergence (generated programs
     * are bounded, but minimization candidates can loop forever).
     */
    std::uint64_t maxInstructions = 2'000'000;
    /** Records shown around the first mismatch. */
    int reportWindow = 6;
    /**
     * Trace events shown per rig in the report (none if <= 0). Each
     * rig's trace ring holds only this many events.
     */
    int traceTail = 12;
    /** Skip the final page-by-page memory diff (for speed). */
    bool compareMemory = true;
    /**
     * Per-side basic-block translation cache switches. Unset, a side
     * keeps the process default (ExecCore::blockCacheDefault, which
     * --no-block-cache turns off); splitting them (one side cached,
     * one not) turns every lockstep run into a cache-on/off
     * equivalence check on top of the pipeline diff.
     */
    std::optional<bool> refBlockCache;
    std::optional<bool> candBlockCache;
    /**
     * Test hook: called on the complex rig's CPU after construction
     * (e.g. to enable the injected verification bug).
     */
    std::function<void(OooCpu &)> prepareComplex;
};

/** Outcome of one lockstep run. */
struct LockstepResult
{
    /** True iff both machines halted in identical architectural state. */
    bool equivalent = false;
    /** A concrete mismatch was found (report describes it). */
    bool diverged = false;
    /** The instruction cap was hit before both machines halted. */
    bool timedOut = false;
    /** Instructions retired on the reference (in-order) machine. */
    std::uint64_t instructions = 0;
    /** Human-readable divergence report; empty when equivalent. */
    std::string report;
};

/**
 * Run @p prog on a SimpleCpu rig (reference) and an OooCpu rig
 * (candidate) in lockstep and compare. The program must not touch the
 * MMIO window if strict equivalence is expected: cycle-counter reads
 * are timing-dependent between the machines by design (the checker
 * therefore skips value comparison for MMIO loads but still compares
 * control flow and addresses).
 */
LockstepResult runLockstep(const Program &prog,
                           const LockstepOptions &opts = {});

} // namespace visa::verify

#endif // VISA_VERIFY_LOCKSTEP_HH
