/**
 * @file
 * Static I-cache analysis producing the caching categorizations of
 * paper Table 2 (always-hit / always-miss / first-miss / first-hit,
 * per loop level).
 *
 * Method: persistence analysis by set-conflict counting. A memory
 * block is *persistent* in a scope (the function body or a loop) when
 * the number of distinct program memory blocks accessed during the
 * scope's execution that map to its cache set does not exceed the
 * associativity — once loaded it can never be evicted inside the
 * scope. Such a block is first-miss at the *outermost* scope in which
 * it is persistent (one miss per scope entry); blocks persistent
 * nowhere are always-miss; non-leading instructions of a memory block
 * inside a basic block are always-hit (the leading access loads the
 * line and nothing can evict it mid-block). The first-hit category is
 * defined for completeness but not produced by this analysis.
 *
 * This is sound and, for programs whose footprint fits the cache (the
 * hard real-time norm), exact.
 */

#ifndef VISA_WCET_CACHE_ANALYSIS_HH
#define VISA_WCET_CACHE_ANALYSIS_HH

#include <map>
#include <set>
#include <vector>

#include "mem/cache.hh"
#include "wcet/cfg.hh"

namespace visa
{

/** Caching categorizations (paper Table 2). */
enum class CacheCat
{
    AlwaysHit,     ///< guaranteed in cache when accessed
    AlwaysMiss,    ///< not guaranteed in cache
    FirstMiss,     ///< misses once per entry of its assigned scope
    FirstHit,      ///< first access hits, later may miss (not produced)
};

/** @return a short mnemonic ("h", "m", "fm", "fh") as in the paper. */
const char *cacheCatName(CacheCat cat);

/** Categorization of one instruction fetch. */
struct InstrCategory
{
    CacheCat cat = CacheCat::AlwaysMiss;
    /**
     * For FirstMiss: the scope the single miss is charged to — a loop
     * id from the Cfg, or -1 for the function body (one miss per
     * task execution).
     */
    int fmScope = -1;
};

/** Per-function static I-cache analysis. */
class ICacheAnalysis
{
  public:
    /**
     * @param cfg        the function under analysis
     * @param params     I-cache geometry (Table 1)
     * @param callee_footprints memory-block footprint (block-aligned
     *        addresses) of each callee entry, for conflict counting
     *        across calls; pass the accumulated map built bottom-up
     *        over the call graph
     */
    ICacheAnalysis(const Cfg &cfg, const CacheParams &params,
                   const std::map<Addr, std::set<Addr>> &callee_footprints);

    /** Categorization of the fetch at @p pc. */
    const InstrCategory &at(Addr pc) const;

    /**
     * Distinct first-miss memory blocks charged to @p scope
     * (-1 = function body, otherwise a loop id).
     */
    const std::set<Addr> &fmBlocks(int scope) const;

    /**
     * This function's own transitive memory-block footprint (for use
     * as a callee footprint higher up the call graph).
     */
    const std::set<Addr> &footprint() const { return footprint_; }

  private:
    Addr blockAddr(Addr pc) const { return pc & ~(blockBytes_ - 1); }

    const Cfg &cfg_;
    Addr blockBytes_;
    std::uint32_t numSets_;
    std::uint32_t assoc_;
    /** Categories by (pc - catBase_) / 4 over the function's span;
     *  catKnown_ marks the words that belong to one of its blocks. */
    Addr catBase_ = 0;
    std::vector<InstrCategory> cats_;
    std::vector<bool> catKnown_;
    std::map<int, std::set<Addr>> fmBlocks_;
    std::set<Addr> footprint_;
    std::set<Addr> emptySet_;
};

} // namespace visa

#endif // VISA_WCET_CACHE_ANALYSIS_HH
