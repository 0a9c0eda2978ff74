#include "wcet/cache_analysis.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace visa
{

const char *
cacheCatName(CacheCat cat)
{
    switch (cat) {
      case CacheCat::AlwaysHit:  return "h";
      case CacheCat::AlwaysMiss: return "m";
      case CacheCat::FirstMiss:  return "fm";
      case CacheCat::FirstHit:   return "fh";
    }
    return "<bad>";
}

ICacheAnalysis::ICacheAnalysis(
    const Cfg &cfg, const CacheParams &params,
    const std::map<Addr, std::set<Addr>> &callee_footprints)
    : cfg_(cfg),
      blockBytes_(params.blockBytes),
      numSets_(params.sizeBytes / (params.assoc * params.blockBytes)),
      assoc_(params.assoc)
{
    auto setOf = [&](Addr block) {
        return (block / blockBytes_) & (numSets_ - 1);
    };

    // Footprint of a single basic block plus its callee (if any).
    auto bbFootprint = [&](const BasicBlock &bb, std::set<Addr> &out) {
        for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4)
            out.insert(blockAddr(pc));
        if (bb.callTarget) {
            auto it = callee_footprints.find(bb.callTarget);
            if (it == callee_footprints.end())
                fatal("icache analysis: missing footprint for callee "
                      "0x%x (call graph must be processed bottom-up)",
                      bb.callTarget);
            out.insert(it->second.begin(), it->second.end());
        }
    };

    // Scope footprints: -1 = whole function; loop ids = loop members.
    std::map<int, std::set<Addr>> scopeFootprint;
    for (const auto &bb : cfg.blocks())
        bbFootprint(bb, scopeFootprint[-1]);
    for (const auto &loop : cfg.loops())
        for (int b : loop.blocks)
            bbFootprint(cfg.block(b), scopeFootprint[loop.id]);
    footprint_ = scopeFootprint[-1];

    // Conflict counts per scope and cache set.
    std::map<int, std::map<std::uint32_t, std::uint32_t>> conflicts;
    for (const auto &[scope, blocks] : scopeFootprint)
        for (Addr b : blocks)
            ++conflicts[scope][setOf(b)];

    auto persistentIn = [&](int scope, Addr block) {
        return conflicts.at(scope).at(setOf(block)) <= assoc_;
    };

    // Categorize the leading fetch of each memory block per basic
    // block; followers are always-hit.
    Addr lo = ~0u;
    Addr hi = 0;
    for (const auto &bb : cfg.blocks()) {
        lo = std::min(lo, bb.startPc);
        hi = std::max(hi, bb.endPc);
    }
    catBase_ = lo;
    cats_.resize(lo < hi ? (hi - lo) / 4 : 0);
    catKnown_.resize(cats_.size());
    for (const auto &bb : cfg.blocks()) {
        Addr prev_block = ~0u;
        for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4) {
            Addr b = blockAddr(pc);
            InstrCategory cat;
            if (b == prev_block) {
                cat.cat = CacheCat::AlwaysHit;
            } else {
                // Scope chain from outermost to innermost.
                std::vector<int> chain{-1};
                {
                    std::vector<int> inner;
                    for (int l = cfg.loopOf(bb.id); l >= 0;
                         l = cfg.loop(l).parent)
                        inner.push_back(l);
                    chain.insert(chain.end(), inner.rbegin(),
                                 inner.rend());
                }
                cat.cat = CacheCat::AlwaysMiss;
                for (int scope : chain) {
                    if (persistentIn(scope, b)) {
                        cat.cat = CacheCat::FirstMiss;
                        cat.fmScope = scope;
                        fmBlocks_[scope].insert(b);
                        break;
                    }
                }
            }
            cats_[(pc - lo) / 4] = cat;
            catKnown_[(pc - lo) / 4] = true;
            prev_block = b;
        }
    }
}

const InstrCategory &
ICacheAnalysis::at(Addr pc) const
{
    const std::size_t i = (pc - catBase_) / 4;
    if (pc < catBase_ || pc % 4 || i >= cats_.size() || !catKnown_[i])
        panic("icache analysis: no categorization for 0x%x", pc);
    return cats_[i];
}

const std::set<Addr> &
ICacheAnalysis::fmBlocks(int scope) const
{
    auto it = fmBlocks_.find(scope);
    return it == fmBlocks_.end() ? emptySet_ : it->second;
}

} // namespace visa
