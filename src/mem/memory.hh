/**
 * @file
 * Sparse byte-addressable main memory (functional storage only; timing
 * lives in MemController and the caches).
 *
 * This is the hottest data structure in the simulator: both pipelines
 * funnel every simulated load/store through it. The design is therefore
 * two-level: an inline fast path that serves accesses out of the
 * last-touched page with a single memcpy (no hash probe at all when the
 * page repeats, one probe when it changes), and an out-of-line slow
 * path for page-straddling accesses and absent pages.
 */

#ifndef VISA_MEM_MEMORY_HH
#define VISA_MEM_MEMORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "sim/types.hh"

namespace visa
{

/** Little-endian sparse memory backed by 4 KB pages. */
class MainMemory
{
  public:
    /** Read @p bytes (1, 2, 4, or 8) starting at @p addr. */
    std::uint64_t
    read(Addr addr, int bytes) const
    {
        const Addr off = addr & pageMask;
        if ((addr >> pageBits) == cachedIdx_ &&
            off + static_cast<Addr>(bytes) <= pageSize) [[likely]]
            return loadLe(cachedPage_->data() + off, bytes);
        return readSlow(addr, bytes);
    }

    /** Write the low @p bytes of @p value starting at @p addr. */
    void
    write(Addr addr, std::uint64_t value, int bytes)
    {
        if (addr + static_cast<Addr>(bytes) > codeBase_ &&
            addr < codeEnd_) [[unlikely]]
            noteCodeWrite(addr, static_cast<Addr>(bytes));
        const Addr off = addr & pageMask;
        if ((addr >> pageBits) == cachedIdx_ &&
            off + static_cast<Addr>(bytes) <= pageSize) [[likely]] {
            storeLe(cachedPage_->data() + off, value, bytes);
            return;
        }
        writeSlow(addr, value, bytes);
    }

    Word readWord(Addr addr) const
    {
        return static_cast<Word>(read(addr, 4));
    }
    void writeWord(Addr addr, Word v) { write(addr, v, 4); }

    double
    readDouble(Addr addr) const
    {
        std::uint64_t bits = read(addr, 8);
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
    }

    void
    writeDouble(Addr addr, double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        write(addr, bits, 8);
    }

    /**
     * Copy @p n raw bytes from @p src into memory starting at @p addr,
     * splitting only at page boundaries (pages are created as needed).
     */
    void writeBytes(Addr addr, const void *src, std::size_t n);

    /**
     * Copy a program's text and initialized data into memory. All
     * touched pages are materialized up front so the simulation's
     * first accesses already hit the page cache.
     */
    void loadProgram(const Program &prog);

    /** Page size of the flat-page table, bytes. */
    static constexpr Addr pageBytes() { return pageSize; }

    /**
     * Register [base, base+bytes) as executable code so stores into it
     * are flagged for the pre-decoded block caches. Called by
     * loadProgram before it writes the text image (the load itself
     * bumps the counters, which a resync then observes as a no-op word
     * diff). Re-registration extends the tracked range to the union.
     */
    void setCodeRange(Addr base, Addr bytes);

    /** Total stores that touched the registered code range. */
    std::uint64_t codeWriteCount() const { return codeWriteCount_; }

    /**
     * Monotonic write-generation of the code page containing @p a
     * (0 when @p a is outside the registered range).
     */
    std::uint64_t
    codePageGen(Addr a) const
    {
        if (a - codeBase_ >= codeEnd_ - codeBase_)
            return 0;
        return codePageGens_[(a >> pageBits) - (codeBase_ >> pageBits)];
    }

    /**
     * Base addresses of every materialized (dirty) page, ascending.
     * Pages are created by writes and by loadProgram, so this is the
     * set the differential checker must diff; untouched pages read as
     * zero on both rigs by construction.
     */
    std::vector<Addr> pageBases() const;

    /**
     * @return the raw bytes of the materialized page containing
     * @p addr (pageBytes() of them), or nullptr if the page is absent
     * (i.e. reads as zeros). Does not materialize the page.
     */
    const std::uint8_t *peekPage(Addr addr) const;

    /** Drop all contents. */
    void
    clear()
    {
        pages_.clear();
        cachedIdx_ = noPage;
        cachedPage_ = nullptr;
    }

  private:
    static constexpr Addr pageBits = 12;
    static constexpr Addr pageSize = 1u << pageBits;
    static constexpr Addr pageMask = pageSize - 1;
    /** Page-index value that can never match a real address. */
    static constexpr Addr noPage = ~static_cast<Addr>(0);

    using Page = std::array<std::uint8_t, pageSize>;

    /** Assemble up to 8 little-endian bytes into a value. */
    static std::uint64_t
    loadLe(const std::uint8_t *p, int bytes)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::uint64_t v = 0;
            std::memcpy(&v, p, static_cast<std::size_t>(bytes));
            return v;
        } else {
            std::uint64_t v = 0;
            for (int i = 0; i < bytes; ++i)
                v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
            return v;
        }
    }

    /** Scatter the low bytes of @p v little-endian first. */
    static void
    storeLe(std::uint8_t *p, std::uint64_t v, int bytes)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(p, &v, static_cast<std::size_t>(bytes));
        } else {
            for (int i = 0; i < bytes; ++i)
                p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }

    /** @return the page holding @p a, or nullptr; caches a hit. */
    Page *findPage(Addr a) const;
    /** @return the page holding @p a, creating it if absent; caches. */
    Page *touchPage(Addr a);

    std::uint64_t readSlow(Addr addr, int bytes) const;
    void writeSlow(Addr addr, std::uint64_t value, int bytes);

    /** Bump generation counters for a store into the code range. */
    void noteCodeWrite(Addr addr, Addr bytes);

    std::uint8_t readByte(Addr a) const;
    void writeByte(Addr a, std::uint8_t v);

    mutable std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
    /** One-entry page cache: index and pointer of the last-hit page. */
    mutable Addr cachedIdx_ = noPage;
    mutable Page *cachedPage_ = nullptr;

    /** Registered executable range; empty (0, 0) until loadProgram. */
    Addr codeBase_ = 0;
    Addr codeEnd_ = 0;
    std::uint64_t codeWriteCount_ = 0;
    /** Per-code-page write generations, indexed from codeBase_'s page. */
    std::vector<std::uint64_t> codePageGens_;
};

} // namespace visa

#endif // VISA_MEM_MEMORY_HH
