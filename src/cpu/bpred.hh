/**
 * @file
 * Branch predictors: the VISA's static backward-taken/forward-not-taken
 * heuristic, the complex processor's 2^16-entry gshare predictor
 * (McFarling), and the 2^16-entry indirect-target table indexed the same
 * way as gshare (paper §3.2).
 */

#ifndef VISA_CPU_BPRED_HH
#define VISA_CPU_BPRED_HH

#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "sim/types.hh"

namespace visa
{

/**
 * Static heuristic used by the VISA and by simple mode: backward
 * conditional branches predicted taken, forward predicted not-taken.
 */
inline bool
staticPredictTaken(const Instruction &inst, Addr pc)
{
    return inst.isBackward(pc);
}

/** A gshare conditional-branch predictor with 2-bit counters. */
class Gshare
{
  public:
    /** @param log2_entries log2 of the prediction table size (paper: 16) */
    explicit Gshare(unsigned log2_entries = 16);

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Train with the resolved direction and update global history.
     * @return true if the prediction (recomputed pre-update) was correct.
     */
    bool update(Addr pc, bool taken);

    /** Clear all counters and history (Fig. 4 flush). */
    void flush();

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

  private:
    std::uint32_t index(Addr pc) const;

    unsigned log2Entries_;
    std::uint32_t historyMask_;
    std::uint32_t history_ = 0;
    std::vector<std::uint8_t> table_;    ///< 2-bit saturating counters
    mutable std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

/**
 * Tagless indirect-target table, indexed like gshare: predicts the
 * target of JR/JALR in complex mode. The table (256 KB at the default
 * 2^16 entries) is allocated on the first update(): until then every
 * entry reads as 0, so a machine that never trains it (most tasks have
 * no indirect jump) never pays for it.
 */
class IndirectPredictor
{
  public:
    explicit IndirectPredictor(unsigned log2_entries = 16);

    /** Predict the target of the indirect jump at @p pc (0 = no idea). */
    Addr predict(Addr pc) const;

    /**
     * Train with the actual target.
     * @return true if the pre-update prediction matched.
     */
    bool update(Addr pc, Addr target);

    /** Forget every target (releases the table). */
    void flush();

  private:
    std::uint32_t index(Addr pc) const;

    unsigned log2Entries_;
    std::vector<Addr> table_;    ///< empty: every entry still 0
};

} // namespace visa

#endif // VISA_CPU_BPRED_HH
