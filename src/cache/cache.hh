/**
 * @file
 * A per-core L1 data cache with MESI metadata.
 *
 * Matches the paper's LCR simulator configuration (Section 6): 2-way
 * set associative, 64-byte blocks, 64 KB total, per core. The cache
 * tracks coherence metadata only — data values live in the VM's
 * memory image — which is exactly what is needed to report the
 * pre-access coherence state for every load and store.
 *
 * Hot-path notes: block and set extraction are shift/mask (the
 * geometry checks guarantee power-of-two block size, and set counts
 * are power-of-two for power-of-two associativities); lookups probe a
 * per-set MRU-way hint first, so the common repeated-block access
 * costs one tag compare. The event counters are plain `Counter`
 * members bumped directly; they do not live inside a StatGroup, and
 * `stats()` returns a snapshot StatGroup built from them on demand.
 *
 * Setup/teardown notes: a simulated run builds its caches at boot and
 * drops them at the end, and most runs touch a handful of the 512
 * sets. fill() (the miss path) marks its set in a dirty bitmap.
 * reset() and the destructor clear only the dirty sets; the
 * destructor then hands the line, MRU-hint and bitmap buffers to a
 * small per-thread free list, and the next cache of the same geometry
 * on that thread takes them instead of allocating and zero-filling
 * fresh ones.
 */

#ifndef STM_CACHE_CACHE_HH
#define STM_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/mesi.hh"
#include "isa/types.hh"
#include "support/stats.hh"

namespace stm
{

/** Cache geometry; defaults mirror the paper's simulator. */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t blockBytes = 64;
};

/**
 * One core's L1-D cache. Accesses are driven through the Bus, which
 * coordinates the MESI transitions across caches; the cache itself
 * owns lookup, fill, LRU eviction, and snoop state changes.
 */
class L1Cache
{
  public:
    struct Line
    {
        Addr tag = 0;
        MesiState state = MesiState::Invalid;
        std::uint64_t lastUse = 0;
    };

    L1Cache(std::uint32_t core_id, const CacheGeometry &geometry);
    ~L1Cache();

    L1Cache(const L1Cache &) = delete;
    L1Cache &operator=(const L1Cache &) = delete;

    /** Block (line) address of @p addr. */
    Addr blockOf(Addr addr) const { return addr >> blockShift_; }

    /** Current MESI state of the line holding @p addr. */
    MesiState stateOf(Addr addr) const;

    /**
     * Install @p block with state @p state, evicting the set's LRU
     * victim if necessary. @return true if a modified victim was
     * written back.
     */
    bool fill(Addr block, MesiState state);

    /** Set the state of a resident line (hit-path transitions). */
    void setState(Addr block, MesiState state);

    /** Mark the line holding @p block most recently used. */
    void touch(Addr block);

    /** Snoop: another core reads the block (M/E -> S). */
    void snoopRead(Addr block);

    /** Snoop: another core writes the block (any -> I). */
    void snoopWrite(Addr block);

    /**
     * Drop every line: clear the sets dirtied since construction or
     * the last reset, and restart the LRU clock. Event counters keep
     * their values. The destructor runs this before recycling the
     * storage.
     */
    void reset();

    std::uint32_t coreId() const { return coreId_; }
    const CacheGeometry &geometry() const { return geometry_; }
    /**
     * Snapshot of the event counters as the "l1d<core>" group:
     * fills, evictions, writebacks, invalidations_received.
     */
    StatGroup stats() const;

    /** Tag lookups performed (throughput instrumentation). */
    std::uint64_t lookups() const { return lookups_; }
    /** Lookups satisfied by the per-set MRU-way hint. */
    std::uint64_t mruHits() const { return mruHits_; }

  private:
    friend class Bus; //!< single-lookup access path in Bus::access

    std::uint32_t
    setIndex(Addr block) const
    {
        return setsArePow2_
                   ? static_cast<std::uint32_t>(block) & setMask_
                   : static_cast<std::uint32_t>(block % numSets_);
    }

    /**
     * Tag lookup. Inline: this is the single hottest cache routine —
     * every access, snoop, and state change funnels through it. The
     * MRU-way hint makes the common repeated-block hit one compare.
     */
    Line *
    findLine(Addr block)
    {
        ++lookups_;
        std::uint32_t set = setIndex(block);
        Line *base = &lines_[std::size_t{set} * geometry_.assoc];
        std::uint32_t hint = mruWay_[set];
        Line &mru = base[hint];
        if (mru.state != MesiState::Invalid && mru.tag == block)
            [[likely]] {
            ++mruHits_;
            return &mru;
        }
        return findLineSlow(base, set, hint, block);
    }

    const Line *
    findLine(Addr block) const
    {
        return const_cast<L1Cache *>(this)->findLine(block);
    }

    /** MRU miss: scan the remaining ways, updating the hint. */
    Line *findLineSlow(Line *base, std::uint32_t set,
                       std::uint32_t hint, Addr block);

    /** Mark @p set as holding state reset() must clear. */
    void
    markDirty(std::uint32_t set)
    {
        dirty_[set >> 6] |= std::uint64_t{1} << (set & 63);
    }

    std::uint32_t coreId_;
    CacheGeometry geometry_;
    std::uint32_t numSets_;
    std::uint32_t blockShift_; //!< log2(blockBytes)
    std::uint32_t setMask_;    //!< numSets_ - 1 when power of two
    bool setsArePow2_;
    // Recycled buffers: a set whose dirty_ bit is clear holds default
    // Lines and a zero MRU hint.
    std::vector<Line> lines_;     //!< numSets_ * assoc, set-major
    std::vector<std::uint32_t> mruWay_; //!< per-set MRU-way hint
    std::vector<std::uint64_t> dirty_;  //!< one bit per set
    std::uint64_t tick_;
    std::uint64_t lookups_ = 0;
    std::uint64_t mruHits_ = 0;
    Counter fills_;
    Counter evictions_;
    Counter writebacks_;
    Counter invalidationsReceived_;
};

} // namespace stm

#endif // STM_CACHE_CACHE_HH
