#include "mem/memory.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace visa
{

MainMemory::Page *
MainMemory::findPage(Addr a) const
{
    const Addr idx = a >> pageBits;
    if (idx == cachedIdx_)
        return cachedPage_;
    auto it = pages_.find(idx);
    if (it == pages_.end())
        return nullptr;
    cachedIdx_ = idx;
    cachedPage_ = it->second.get();
    return cachedPage_;
}

MainMemory::Page *
MainMemory::touchPage(Addr a)
{
    const Addr idx = a >> pageBits;
    if (idx == cachedIdx_)
        return cachedPage_;
    auto &page = pages_[idx];
    if (!page) {
        page = std::make_unique<Page>();
        page->fill(0);
    }
    cachedIdx_ = idx;
    cachedPage_ = page.get();
    return cachedPage_;
}

std::uint8_t
MainMemory::readByte(Addr a) const
{
    const Page *page = findPage(a);
    return page ? (*page)[a & pageMask] : 0;
}

void
MainMemory::writeByte(Addr a, std::uint8_t v)
{
    (*touchPage(a))[a & pageMask] = v;
}

std::uint64_t
MainMemory::readSlow(Addr addr, int bytes) const
{
    const Addr off = addr & pageMask;
    if (off + static_cast<Addr>(bytes) <= pageSize) {
        // Same page, just not the cached one (or absent).
        const Page *page = findPage(addr);
        return page ? loadLe(page->data() + off, bytes) : 0;
    }
    // Page-straddling access: compose the two halves.
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(readByte(addr + static_cast<Addr>(i)))
             << (8 * i);
    return v;
}

void
MainMemory::writeSlow(Addr addr, std::uint64_t value, int bytes)
{
    const Addr off = addr & pageMask;
    if (off + static_cast<Addr>(bytes) <= pageSize) {
        storeLe(touchPage(addr)->data() + off, value, bytes);
        return;
    }
    for (int i = 0; i < bytes; ++i)
        writeByte(addr + static_cast<Addr>(i),
                  static_cast<std::uint8_t>(value >> (8 * i)));
}

void
MainMemory::setCodeRange(Addr base, Addr bytes)
{
    const Addr end = base + bytes;
    if (codeEnd_ > codeBase_) {    // union with the existing range
        base = std::min(base, codeBase_);
        bytes = std::max(end, codeEnd_) - base;
    }
    const Addr first_page = base >> pageBits;
    const Addr last_page = (base + bytes - 1) >> pageBits;
    std::vector<std::uint64_t> gens(last_page - first_page + 1, 0);
    if (codeEnd_ > codeBase_) {
        // Preserve existing counters at their (possibly shifted) slots.
        const Addr old_first = codeBase_ >> pageBits;
        for (std::size_t i = 0; i < codePageGens_.size(); ++i)
            gens[old_first - first_page + i] = codePageGens_[i];
    }
    codePageGens_ = std::move(gens);
    codeBase_ = base;
    codeEnd_ = base + bytes;
}

void
MainMemory::noteCodeWrite(Addr addr, Addr bytes)
{
    const Addr lo = std::max(addr, codeBase_);
    const Addr hi = std::min(addr + bytes, codeEnd_);
    if (lo >= hi)
        return;
    ++codeWriteCount_;
    const Addr first = codeBase_ >> pageBits;
    for (Addr p = lo >> pageBits; p <= (hi - 1) >> pageBits; ++p)
        ++codePageGens_[p - first];
}

void
MainMemory::writeBytes(Addr addr, const void *src, std::size_t n)
{
    if (addr + static_cast<Addr>(n) > codeBase_ && addr < codeEnd_)
        [[unlikely]]
        noteCodeWrite(addr, static_cast<Addr>(n));
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        const Addr off = addr & pageMask;
        const std::size_t chunk =
            std::min<std::size_t>(n, pageSize - off);
        std::memcpy(touchPage(addr)->data() + off, in, chunk);
        in += chunk;
        addr += static_cast<Addr>(chunk);
        n -= chunk;
    }
}

std::vector<Addr>
MainMemory::pageBases() const
{
    std::vector<Addr> bases;
    bases.reserve(pages_.size());
    for (const auto &kv : pages_)
        bases.push_back(kv.first << pageBits);
    std::sort(bases.begin(), bases.end());
    return bases;
}

const std::uint8_t *
MainMemory::peekPage(Addr addr) const
{
    auto it = pages_.find(addr >> pageBits);
    return it == pages_.end() ? nullptr : it->second->data();
}

void
MainMemory::loadProgram(const Program &prog)
{
    // Pre-touch every text and data page so the first simulated
    // accesses never pay the map-insert cost mid-run.
    const Addr text_bytes = static_cast<Addr>(prog.words.size() * 4);
    if (text_bytes)
        setCodeRange(prog.textBase, text_bytes);
    for (Addr a = prog.textBase & ~pageMask; a < prog.textBase + text_bytes;
         a += pageSize)
        touchPage(a);
    for (Addr a = prog.dataBase & ~pageMask;
         a < prog.dataBase + static_cast<Addr>(prog.data.size());
         a += pageSize)
        touchPage(a);

    for (std::size_t i = 0; i < prog.words.size(); ++i)
        writeWord(prog.textBase + static_cast<Addr>(i * 4), prog.words[i]);
    if (!prog.data.empty())
        writeBytes(prog.dataBase, prog.data.data(), prog.data.size());
}

} // namespace visa
