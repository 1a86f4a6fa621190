/**
 * @file
 * A snooping bus coordinating MESI transitions across per-core L1
 * caches.
 *
 * Every data-memory access in the VM flows through Bus::access, which
 * returns the coherence state the requesting core observed *prior to*
 * the access — the quantity the proposed LCR hardware records.
 */

#ifndef STM_CACHE_BUS_HH
#define STM_CACHE_BUS_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "support/stats.hh"

namespace stm
{

/** MESI snooping bus over any number of L1 caches. */
class Bus
{
  public:
    explicit Bus(const CacheGeometry &geometry = {});

    /** Create and attach the cache for core @p core_id (dense ids). */
    L1Cache &addCore(std::uint32_t core_id);

    /** The cache of core @p core_id. */
    L1Cache &cache(std::uint32_t core_id);
    const L1Cache &cache(std::uint32_t core_id) const;

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(caches_.size());
    }

    /**
     * Perform one access by @p core_id at byte address @p addr.
     * Applies the full MESI transition (bus read / read-exclusive /
     * upgrade, snoops, fills, evictions) and returns the state the
     * requester observed before the access.
     *
     * Inline: the common case is a hit in the requester's own cache
     * (one tag lookup, one LRU touch, one counter bump); only misses
     * and upgrades leave the header via accessMiss/storeUpgrade. The
     * Line pointer from the single lookup stays valid throughout —
     * snoops only mutate *other* caches.
     */
    MesiState
    access(std::uint32_t core_id, Addr addr, bool is_store)
    {
        // Core ids are dense and validated at addCore; index directly.
        L1Cache &requester = *caches_[core_id];
        Addr block = requester.blockOf(addr);
        L1Cache::Line *line = requester.findLine(block);

        if (!is_store) {
            if (line != nullptr) [[likely]] {
                // Load hit: state unchanged.
                MesiState observed = line->state;
                line->lastUse = ++requester.tick_;
                ++loadHits_;
                return observed;
            }
            accessMiss(requester, block);
            return MesiState::Invalid;
        }

        // Store.
        if (line != nullptr) [[likely]] {
            MesiState observed = line->state;
            switch (observed) {
              case MesiState::Modified:
                line->lastUse = ++requester.tick_;
                ++storeHits_;
                break;
              case MesiState::Exclusive:
                // Silent upgrade.
                line->state = MesiState::Modified;
                line->lastUse = ++requester.tick_;
                ++storeHits_;
                break;
              default:
                storeUpgrade(requester, line, block);
                break;
            }
            return observed;
        }
        storeMiss(requester, block);
        return MesiState::Invalid;
    }

    /** True if any *other* core has the block in a valid state. */
    bool otherSharers(std::uint32_t core_id, Addr block) const;

    /**
     * Snapshot of the bus event counters as the "bus" group:
     * load_hits, bus_reads, store_hits, bus_upgrades,
     * bus_read_exclusives.
     */
    StatGroup stats() const;

  private:
    /** Load miss: BusRd — snoop-downgrade owners, then fill. */
    void accessMiss(L1Cache &requester, Addr block);
    /** Store to a Shared line: BusUpgr — invalidate other copies. */
    void storeUpgrade(L1Cache &requester, L1Cache::Line *line,
                      Addr block);
    /** Store miss: BusRdX — invalidate everywhere, fill Modified. */
    void storeMiss(L1Cache &requester, Addr block);

    CacheGeometry geometry_;
    std::vector<std::unique_ptr<L1Cache>> caches_;
    Counter loadHits_;
    Counter busReads_;
    Counter storeHits_;
    Counter busUpgrades_;
    Counter busReadExclusives_;
};

} // namespace stm

#endif // STM_CACHE_BUS_HH
