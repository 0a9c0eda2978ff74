/**
 * @file
 * A set-associative, true-LRU cache timing model (Table 1: 64 KB, 4-way,
 * 64 B blocks, 1-cycle hit). Functional data lives in MainMemory; the
 * cache tracks only tags, so fills never move data.
 */

#ifndef VISA_MEM_CACHE_HH
#define VISA_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace visa
{

/** Replacement policies. The VISA contract (Table 1) uses LRU; the
 *  WCET analyzer's persistence argument is only valid for LRU, so the
 *  others exist for microarchitecture studies on the complex side. */
enum class ReplPolicy
{
    Lru,
    Fifo,
    Random,    ///< deterministic LFSR victim selection
};

/** Cache geometry parameters. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t blockBytes = 64;
    ReplPolicy repl = ReplPolicy::Lru;
};

/** Tag-only set-associative LRU cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr; on a miss the block is filled (allocate on both
     * reads and writes). Inline: this sits on the per-instruction path
     * of both pipelines, and the geometry is power-of-two by
     * construction so the index/tag math is all shifts.
     * @return true on hit.
     */
    bool
    access(Addr addr, bool is_write)
    {
        (void)is_write;    // allocate-on-write: same path as reads
        ++accesses_;
        const std::uint32_t set = setIndex(addr);
        const Addr tag = tagOf(addr);
        Line *ways =
            &lines_[static_cast<std::size_t>(set) * params_.assoc];
        // One-entry MRU filter: sequential fetch and streaming data hit
        // the same block many times in a row, so the common case skips
        // the way scan. Exact: anything that changes a line's tag or
        // valid bit (fill, flush) invalidates the filter, and the hit
        // bookkeeping below is identical to the scan's.
        if (ways == mruWays_ && tag == mruTag_) [[likely]] {
            if (params_.repl == ReplPolicy::Lru)
                mruLine_->lruStamp = ++stamp_;    // FIFO: no refresh
            return true;
        }
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (ways[w].valid && ways[w].tag == tag) {
                if (params_.repl == ReplPolicy::Lru)
                    ways[w].lruStamp = ++stamp_;
                mruWays_ = ways;
                mruTag_ = tag;
                mruLine_ = &ways[w];
                return true;
            }
        }
        fill(ways, tag);
        return false;
    }

    /** Look up @p addr without changing any state. @return true on hit. */
    bool
    probe(Addr addr) const
    {
        const std::uint32_t set = setIndex(addr);
        const Addr tag = tagOf(addr);
        const Line *ways =
            &lines_[static_cast<std::size_t>(set) * params_.assoc];
        for (std::uint32_t w = 0; w < params_.assoc; ++w)
            if (ways[w].valid && ways[w].tag == tag)
                return true;
        return false;
    }

    /** Invalidate every block (used to induce Fig. 4 mispredictions). */
    void flush();

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return params_.assoc; }
    std::uint32_t blockBytes() const { return params_.blockBytes; }
    /** log2(blockBytes); addr >> blockShift() == addr / blockBytes(). */
    std::uint32_t blockShift() const { return blockShift_; }

    /** Block-aligned address -> (set, tag). */
    std::uint32_t setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> blockShift_) &
               (numSets_ - 1);
    }
    Addr tagOf(Addr addr) const
    {
        return addr >> tagShift_;
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    void
    resetStats()
    {
        accesses_ = 0;
        misses_ = 0;
    }

  private:
    /**
     * One tag line. Trivial on purpose: value-initialization (the
     * constructor's resize) zero-fills the whole array at once, and
     * all-zero is the invalid line.
     */
    struct Line
    {
        bool valid;
        Addr tag;
        std::uint64_t lruStamp;
    };

    /** Pick the victim way in @p ways per the configured policy. */
    Line *victimIn(Line *ways);

    /** Miss path of access(): count the miss and fill the block. */
    void fill(Line *ways, Addr tag);

    CacheParams params_;
    std::uint32_t numSets_;
    std::uint32_t blockShift_ = 0;    ///< log2(blockBytes)
    std::uint32_t tagShift_ = 0;      ///< log2(blockBytes * numSets)
    std::vector<Line> lines_;    ///< numSets_ * assoc, set-major
    /** MRU filter (see access()); cleared by fill() and flush(). */
    Line *mruWays_ = nullptr;    ///< set base of the last hit
    Addr mruTag_ = 0;
    Line *mruLine_ = nullptr;    ///< the hit line within that set
    std::uint64_t stamp_ = 0;
    std::uint32_t lfsr_ = 0xACE1u;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace visa

#endif // VISA_MEM_CACHE_HH
