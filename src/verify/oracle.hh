/**
 * @file
 * Timing-invariant oracle for generated programs: asserts the paper's
 * analytical guarantees against actual simulated timing.
 *
 * For an instrumented generated program the oracle checks:
 *
 *  1. WCET soundness — per-sub-task actual execution time (AET), both
 *     on the simple-fixed processor and in the complex processor's
 *     speculative mode, never exceeds the static VISA WCET at the
 *     respective frequency (paper §3.3: complex-mode AETs staying
 *     under the VISA bound is exactly what makes speculation pay off;
 *     simple-mode conformance is what makes the bound *safe*).
 *
 *  2. EQ 1 checkpoint arithmetic — the runtime's computeCheckpoints
 *     output is re-derived independently from the WCET table:
 *     checkpoint_i = deadline - ovhd - sum_{k=i..s} WCET_{k,f_rec},
 *     increments convert checkpoints to watchdog cycles at f_spec via
 *     floor(), monotonically, and their running sum never overshoots
 *     the checkpoint it realizes.
 *
 *  3. Recovery budget — with the watchdog forced to expire early in
 *     sub-task 1, switching the complex processor to simple mode,
 *     charging the reconfiguration overhead, and finishing at the
 *     recovery frequency still meets a deadline provisioned as
 *     slack * (ovhd + WCET_task(f_rec)) — the end-to-end property EQ 1
 *     exists to guarantee.
 */

#ifndef VISA_VERIFY_ORACLE_HH
#define VISA_VERIFY_ORACLE_HH

#include <string>

#include "core/experiment.hh"
#include "sim/types.hh"
#include "verify/progen.hh"

namespace visa::verify
{

/** Oracle knobs. All frequencies must be DVS operating points. */
struct OracleOptions
{
    MHz fSpec = 1000;
    MHz fRec = 600;
    /** Reconfiguration + frequency-switch overhead, seconds. */
    double ovhdSeconds = experimentOvhdSeconds;
    /** Deadline slack factor over ovhd + WCET_task(f_rec). */
    double deadlineSlack = 1.10;
    /** Run the forced-expiry recovery check (costs one more rig run). */
    bool checkForcedRecovery = true;
};

/** Oracle outcome. */
struct OracleResult
{
    bool ok = false;
    int subtasks = 0;
    /** Violations found; empty when ok. */
    std::string report;
};

/**
 * Run all timing checks on @p gp, which must have been generated with
 * GenParams::instrument set (the AET checks need the sub-task
 * snippets). Analyzer or checkpoint failures (FatalError) are reported
 * as violations, not propagated.
 */
OracleResult runTimingOracle(const GeneratedProgram &gp,
                             const OracleOptions &opts = {});

} // namespace visa::verify

#endif // VISA_VERIFY_ORACLE_HH
