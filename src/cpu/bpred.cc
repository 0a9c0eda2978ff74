#include "cpu/bpred.hh"

namespace visa
{

Gshare::Gshare(unsigned log2_entries)
    : log2Entries_(log2_entries),
      historyMask_((1u << log2_entries) - 1),
      table_(1u << log2_entries, 2)    // weakly taken
{
}

std::uint32_t
Gshare::index(Addr pc) const
{
    return ((pc >> 2) ^ history_) & historyMask_;
}

bool
Gshare::predict(Addr pc) const
{
    ++lookups_;
    return table_[index(pc)] >= 2;
}

bool
Gshare::update(Addr pc, bool taken)
{
    std::uint32_t idx = index(pc);
    bool predicted = table_[idx] >= 2;
    std::uint8_t &ctr = table_[idx];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    bool correct = predicted == taken;
    if (!correct)
        ++mispredicts_;
    return correct;
}

void
Gshare::flush()
{
    std::fill(table_.begin(), table_.end(), 2);
    history_ = 0;
}

IndirectPredictor::IndirectPredictor(unsigned log2_entries)
    : log2Entries_(log2_entries)
{
}

std::uint32_t
IndirectPredictor::index(Addr pc) const
{
    return (pc >> 2) & ((1u << log2Entries_) - 1);
}

Addr
IndirectPredictor::predict(Addr pc) const
{
    return table_.empty() ? 0 : table_[index(pc)];
}

bool
IndirectPredictor::update(Addr pc, Addr target)
{
    if (table_.empty())
        table_.assign(std::size_t{1} << log2Entries_, 0);
    std::uint32_t idx = index(pc);
    bool correct = table_[idx] == target;
    table_[idx] = target;
    return correct;
}

void
IndirectPredictor::flush()
{
    table_ = std::vector<Addr>();
}

} // namespace visa
