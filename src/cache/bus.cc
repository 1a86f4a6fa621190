#include "cache/bus.hh"

#include "support/logging.hh"

namespace stm
{

Bus::Bus(const CacheGeometry &geometry) : geometry_(geometry) {}

L1Cache &
Bus::addCore(std::uint32_t core_id)
{
    if (core_id != caches_.size())
        panic("bus: cores must be added densely (got {}, expected {})",
              core_id, caches_.size());
    caches_.push_back(std::make_unique<L1Cache>(core_id, geometry_));
    return *caches_.back();
}

L1Cache &
Bus::cache(std::uint32_t core_id)
{
    if (core_id >= caches_.size())
        panic("bus: no cache for core {}", core_id);
    return *caches_[core_id];
}

const L1Cache &
Bus::cache(std::uint32_t core_id) const
{
    if (core_id >= caches_.size())
        panic("bus: no cache for core {}", core_id);
    return *caches_[core_id];
}

bool
Bus::otherSharers(std::uint32_t core_id, Addr block) const
{
    for (const auto &c : caches_) {
        if (c->coreId() == core_id)
            continue;
        // stateOf takes a byte address; convert the block back.
        Addr addr = block * c->geometry().blockBytes;
        if (c->stateOf(addr) != MesiState::Invalid)
            return true;
    }
    return false;
}

void
Bus::accessMiss(L1Cache &requester, Addr block)
{
    // Load miss: BusRd. Owners downgrade to Shared.
    ++busReads_;
    std::uint32_t core_id = requester.coreId();
    for (auto &c : caches_) {
        if (c->coreId() != core_id)
            c->snoopRead(block);
    }
    bool shared = otherSharers(core_id, block);
    requester.fill(block, shared ? MesiState::Shared
                                 : MesiState::Exclusive);
}

void
Bus::storeUpgrade(L1Cache &requester, L1Cache::Line *line, Addr block)
{
    // BusUpgr: invalidate the other copies. The Line pointer stays
    // valid across the snoops — they only touch *other* caches.
    ++busUpgrades_;
    std::uint32_t core_id = requester.coreId();
    for (auto &c : caches_) {
        if (c->coreId() != core_id)
            c->snoopWrite(block);
    }
    line->state = MesiState::Modified;
    line->lastUse = ++requester.tick_;
}

void
Bus::storeMiss(L1Cache &requester, Addr block)
{
    // BusRdX: invalidate everywhere, then fill Modified.
    ++busReadExclusives_;
    std::uint32_t core_id = requester.coreId();
    for (auto &c : caches_) {
        if (c->coreId() != core_id)
            c->snoopWrite(block);
    }
    requester.fill(block, MesiState::Modified);
}

StatGroup
Bus::stats() const
{
    StatGroup group("bus");
    group.counter("load_hits") += loadHits_.value();
    group.counter("bus_reads") += busReads_.value();
    group.counter("store_hits") += storeHits_.value();
    group.counter("bus_upgrades") += busUpgrades_.value();
    group.counter("bus_read_exclusives") += busReadExclusives_.value();
    return group;
}

} // namespace stm
