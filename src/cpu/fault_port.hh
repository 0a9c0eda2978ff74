/**
 * @file
 * FaultPort — the narrow fault-injection seam in the complex core.
 *
 * Verification harnesses (verify/inject.hh) install an implementation
 * on an OooCpu to corrupt architectural results or timing at precisely
 * controlled points; production paths never install one. The two hooks
 * cover the whole fault matrix:
 *
 *  - onExecute() fires in the complex-mode fetch stage immediately
 *    after ExecCore::step() produced an instruction's architectural
 *    result and *before* the branch predictors observe its outcome.
 *    An implementation may rewrite the ExecInfo record, the
 *    architectural state, or memory — modeling register-file/ROB
 *    payload bit flips, load value/address corruption, wild stores,
 *    branch direction/target corruption, and decoded-record (block
 *    cache) corruption. Because the record is rewritten before the
 *    predictor update and before dispatch reads it, the corrupted
 *    outcome consistently drives both the functional state and the
 *    timing model, exactly as a real upset would.
 *
 *  - onIssueReady() fires when the issue stage finds a data-ready
 *    entry whose readyAt has arrived. A nonzero return delays the
 *    entry by that many cycles — a stuck/late wakeup in the
 *    event-driven scheduler. Architecturally silent; only the
 *    watchdog can see it. A load that then turns out to wait behind
 *    an older unissued store is parked off the ready list: it is
 *    offered on the scan that parks it and again from the scan that
 *    releases it (the one in which the oldest unissued store issues),
 *    but not on the cycles in between.
 *
 * Simple mode takes no faults by design: it is the trusted fallback
 * the VISA safety argument rests on (paper §2), so the hooks live only
 * on the complex path.
 *
 * Cost model mirrors tracing/profiling: building with -DVISA_INJECT=0
 * removes the hooks entirely; in the default build the no-port path is
 * one member load and a predictable [[unlikely]] branch per site,
 * checked below 2% by the bench_gate ctest, which fails on a breach
 * only on the host its baseline was recorded on and warns elsewhere.
 */

#ifndef VISA_CPU_FAULT_PORT_HH
#define VISA_CPU_FAULT_PORT_HH

#include "sim/types.hh"

#ifndef VISA_INJECT
#define VISA_INJECT 1
#endif

namespace visa
{

class ExecCore;
class MainMemory;
struct ExecInfo;

/** Abstract fault-injection hook installed on an OooCpu (complex mode). */
class FaultPort
{
  public:
    virtual ~FaultPort() = default;

    /**
     * Called after @p info was produced by functional execution, before
     * the predictors and the timing model consume it. May mutate
     * @p info, @p core 's architectural state, and @p mem.
     * @p seq is the instruction's ROB sequence number, @p cycle the
     * current complex-core cycle.
     */
    virtual void onExecute(ExecCore &core, MainMemory &mem, ExecInfo &info,
                           std::uint64_t seq, Cycles cycle) = 0;

    /**
     * Called when entry @p seq is about to issue at @p cycle. Return 0
     * to let it issue; return N to push its wakeup N cycles into the
     * future (a stuck scheduler entry).
     */
    virtual Cycles onIssueReady(std::uint64_t seq, Cycles cycle) = 0;
};

} // namespace visa

#endif // VISA_CPU_FAULT_PORT_HH
