#include "chip/interconnect.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace visa
{
namespace chip
{

ChipInterconnect::ChipInterconnect(int cores, const ChipBusParams &params)
    : params_(params), l2_(params.l2)
{
    if (cores < 1)
        fatal("ChipInterconnect: need at least one core (got %d)", cores);
    if (params_.banks < 1)
        fatal("ChipInterconnect: need at least one bank (got %d)",
              params_.banks);
    clocks_.resize(static_cast<std::size_t>(cores));
    lanes_.resize(static_cast<std::size_t>(cores));
    bankFreeNs_.assign(static_cast<std::size_t>(params_.banks), 0.0);
}

double
ChipInterconnect::arbitrate(std::vector<double> &fills,
                            std::vector<double> &bankFree, double reqNs,
                            Addr addr, bool hit, bool count)
{
    // Retire fills that completed before this request arrived.
    fills.erase(fills.begin(),
                std::upper_bound(fills.begin(), fills.end(), reqNs));

    // Chip MSHR pool: a full pool blocks the request until the
    // earliest outstanding fill frees its entry.
    double startNs = reqNs;
    while (static_cast<int>(fills.size()) >= params_.mshrs) {
        startNs = std::max(startNs, fills.front());
        fills.erase(fills.begin());
        if (count)
            ++mshrStalls_;
    }

    // Bank arbitration: the block's bank serializes requests at
    // busOccupancyNs apiece.
    const Addr block = addr >> l2_.blockShift();
    const std::size_t bank =
        static_cast<std::size_t>(block % static_cast<Addr>(params_.banks));
    const double grantNs = std::max(startNs, bankFree[bank]);
    bankFree[bank] = grantNs + params_.busOccupancyNs;
    if (count) {
        mshrWaitNs_ += startNs - reqNs;
        if (grantNs > startNs)
            ++bankConflicts_;
        bankWaitNs_ += grantNs - startNs;
    }

    const double fillNs =
        grantNs + (hit ? params_.l2HitNs : params_.memAccessNs);
    fills.insert(std::upper_bound(fills.begin(), fills.end(), fillNs),
                 fillNs);
    return fillNs;
}

Cycles
ChipInterconnect::route(int core, Cycles now, MHz f, Addr addr)
{
    if (!epochActive_)
        fatal("ChipInterconnect: core %d routed a miss outside an epoch "
              "(bracket the run with beginEpoch()/drainEpoch())",
              core);
    // Advance the core's shared-timeline position. Frequency changes
    // between two misses attribute the whole gap to the frequency of
    // the later call; the scheduler's per-slice syncCore() bounds the
    // resulting drift to one quantum.
    CoreClock &ck = clocks_[static_cast<std::size_t>(core)];
    if (now > ck.lastCycle)
        ck.ns += static_cast<double>(now - ck.lastCycle) * 1000.0 /
                 static_cast<double>(f);
    ck.lastCycle = now;
    const double reqNs = ck.ns;

    EpochLane &lane = lanes_[static_cast<std::size_t>(core)];
    lane.reqNs.push_back(reqNs);
    lane.addrs.push_back(addr);
    // L2 view: the epoch-frozen tags (probe() is a read-only scan, so
    // concurrent lanes share them safely) plus this core's own fills.
    const Addr block = addr >> l2_.blockShift();
    const bool hit = l2_.probe(addr) ||
                     std::find(lane.filledBlocks.begin(),
                               lane.filledBlocks.end(),
                               block) != lane.filledBlocks.end();
    if (!hit)
        lane.filledBlocks.push_back(block);
    const double fillNs = arbitrate(lane.fills, lane.bankFree, reqNs,
                                    addr, hit, false);

    // Back to the core's cycle domain: the fill lands ceil(delay * f)
    // core cycles after issue (at least the L2 hit time, so a routed
    // miss is never cheaper than one bus round trip).
    const double delayNs = fillNs - reqNs;
    const auto delayCycles = static_cast<Cycles>(
        std::ceil(delayNs * static_cast<double>(f) / 1000.0));
    return now + std::max<Cycles>(delayCycles, 1);
}

void
ChipInterconnect::syncCore(int core, double wallNs, Cycles coreCycle)
{
    CoreClock &ck = clocks_[static_cast<std::size_t>(core)];
    ck.ns = wallNs;
    ck.lastCycle = coreCycle;
}

void
ChipInterconnect::beginEpoch()
{
    if (epochActive_)
        fatal("ChipInterconnect: beginEpoch() inside an open epoch");
    epochActive_ = true;
    for (EpochLane &lane : lanes_) {
        lane.fills = fills_;
        lane.bankFree = bankFreeNs_;
    }
}

void
ChipInterconnect::drainEpoch()
{
    if (!epochActive_)
        fatal("ChipInterconnect: drainEpoch() without beginEpoch()");
    epochActive_ = false;
    // K-way merge of the per-core streams (each already ascending in
    // request ns) keyed by (request ns, core id): the replay order —
    // and with it every counter and every future epoch's snapshot — is
    // a pure function of the request streams.
    std::vector<std::size_t> idx(lanes_.size(), 0);
    for (;;) {
        int pick = -1;
        double pickNs = 0.0;
        for (std::size_t c = 0; c < lanes_.size(); ++c) {
            const EpochLane &lane = lanes_[c];
            if (idx[c] >= lane.reqNs.size())
                continue;
            const double ns = lane.reqNs[idx[c]];
            if (pick < 0 || ns < pickNs) {
                pick = static_cast<int>(c);
                pickNs = ns;
            }
        }
        if (pick < 0)
            break;
        const std::size_t c = static_cast<std::size_t>(pick);
        const Addr addr = lanes_[c].addrs[idx[c]++];
        // The authoritative L2: tag-only, allocate on miss.
        const bool hit = l2_.access(addr, false);
        ++requests_;
        if (hit)
            ++l2Hits_;
        arbitrate(fills_, bankFreeNs_, pickNs, addr, hit, true);
    }
    for (EpochLane &lane : lanes_) {
        lane.reqNs.clear();
        lane.addrs.clear();
        lane.filledBlocks.clear();
    }
}

} // namespace chip
} // namespace visa
