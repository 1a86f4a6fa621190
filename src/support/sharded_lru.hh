/**
 * @file
 * ShardedLru: a sharded, byte-budgeted, LRU-evicting memo table. The
 * predecoded-operand-stream cache (vm/decode_cache.hh) is built on it.
 * The template owns the mechanics:
 *
 *  - **Sharding.** A caller-supplied 64-bit key hash routes to one of
 *    N shards, each with its own mutex, MRU-first list, and
 *    hash → entry collision-chain index, so thread-pool workers hit
 *    the cache in parallel with minimal contention.
 *  - **Byte budget.** The total budget splits evenly across shards;
 *    inserts evict least-recently-used entries until the new entry
 *    fits. A value bigger than a whole shard budget is handed out
 *    uncached (`oversize`) rather than wiping the shard for one entry.
 *  - **Accounting.** Counters hits / misses / evictions / oversize
 *    accumulate in one StatGroup.
 *
 * What stays in the wrapper: key hashing and equality, byte
 * estimation and trace-instant emission. acquire() therefore returns
 * an LruOutcome describing what happened so the wrapper can emit its
 * instants after the fact. acquire() builds the value UNDER the shard
 * lock on a miss, so concurrent callers with one key build exactly
 * once. Builds must not re-enter the cache.
 */

#ifndef STM_SUPPORT_SHARDED_LRU_HH
#define STM_SUPPORT_SHARDED_LRU_HH

#include <cstdint>
#include <initializer_list>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/stats.hh"

namespace stm
{

/** What one ShardedLru mutation did, for wrapper-side tracing. */
struct LruOutcome
{
    bool hit = false;      //!< acquire(): served from cache
    bool oversize = false; //!< rejected: bytes exceed the shard budget
    std::uint64_t evicted = 0;      //!< LRU victims dropped
    std::uint64_t evictedBytes = 0; //!< bytes those victims held
};

/**
 * Sharded, bounded, LRU-evicting map Key → Value.
 *
 * @tparam Key     copyable, equality-comparable cache key
 * @tparam Value   copyable payload (acquire copies the stored Value
 *                 out under the shard lock)
 * @tparam KeyHash callable mapping Key → uint64 (a content digest;
 *                 also used to find eviction victims' chains)
 */
template <typename Key, typename Value, typename KeyHash>
class ShardedLru
{
  public:
    /**
     * @param statGroupName StatGroup name for the shared counters
     *        (e.g. "vm.decode_cache").
     * @param maxBytes total byte budget, split evenly across shards.
     * @param shards shard count (clamped to >= 1).
     */
    ShardedLru(std::string statGroupName, std::size_t maxBytes,
               unsigned shards)
        : stats_(std::move(statGroupName))
    {
        if (shards == 0)
            shards = 1;
        shardBudget_ = maxBytes / shards;
        if (shardBudget_ == 0)
            shardBudget_ = 1;
        shards_.reserve(shards);
        for (unsigned i = 0; i < shards; ++i)
            shards_.push_back(std::make_unique<Shard>());
    }

    ShardedLru(const ShardedLru &) = delete;
    ShardedLru &operator=(const ShardedLru &) = delete;

    /**
     * The value for @p key: served from cache on a hit
     * (outcome.hit), else built by @p build UNDER the shard lock —
     * concurrent callers with one key build exactly once — and
     * inserted with LRU eviction. @p build returns
     * {value, approxBytes}; an oversize build is handed out uncached
     * (outcome.oversize). Bumps hits / misses / evictions / oversize.
     */
    template <typename Build>
    std::pair<Value, LruOutcome>
    acquire(const Key &key, Build &&build)
    {
        LruOutcome outcome;
        std::uint64_t hash = KeyHash{}(key);
        Shard &shard = shardFor(hash);

        std::lock_guard<std::mutex> lock(shard.mu);
        if (Entry *entry = findEntry(shard, hash, key)) {
            outcome.hit = true;
            bumpCounter("hits");
            return {entry->value, outcome};
        }

        bumpCounter("misses");
        auto [value, bytes] = build();
        if (bytes > shardBudget_) {
            outcome.oversize = true;
            bumpCounter("oversize");
            return {std::move(value), outcome};
        }
        evictUntilFits(shard, bytes, outcome);
        shard.lru.push_front(Entry{key, value, bytes});
        shard.index[hash].push_back(shard.lru.begin());
        shard.bytes += bytes;
        if (outcome.evicted > 0)
            bumpCounter("evictions", outcome.evicted);
        return {std::move(value), outcome};
    }

    /** Entries currently retained, summed over shards. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mu);
            n += shard->lru.size();
        }
        return n;
    }

    /** Approximate bytes currently retained, summed over shards. */
    std::size_t
    bytes() const
    {
        std::size_t n = 0;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mu);
            n += shard->bytes;
        }
        return n;
    }

    /** Drop every entry (stats are kept). */
    void
    clear()
    {
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mu);
            shard->lru.clear();
            shard->index.clear();
            shard->bytes = 0;
        }
    }

    /**
     * Snapshot of the cumulative statistics under @p groupName,
     * exposing exactly @p counterNames plus entries/bytes gauges.
     */
    StatGroup
    statsSnapshot(const std::string &groupName,
                  std::initializer_list<const char *> counterNames) const
    {
        StatGroup snap(groupName);
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            for (const char *stat : counterNames)
                snap.counter(stat) += stats_.value(stat);
        }
        snap.gauge("entries").set(static_cast<double>(size()));
        snap.gauge("bytes").set(static_cast<double>(bytes()));
        return snap;
    }

  private:
    struct Entry
    {
        Key key;
        Value value;
        std::size_t bytes = 0;
    };

    struct Shard
    {
        mutable std::mutex mu;
        /** Most-recently-used first. */
        std::list<Entry> lru;
        std::unordered_map<std::uint64_t,
                           std::vector<typename std::list<
                               Entry>::iterator>>
            index; //!< key hash → entries (collision chain)
        std::size_t bytes = 0;
    };

    void
    bumpCounter(const char *stat, std::uint64_t n = 1)
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        stats_.counter(stat) += n;
    }

    Shard &
    shardFor(std::uint64_t hash)
    {
        return *shards_[hash % shards_.size()];
    }

    /** Find @p key in @p shard and refresh its LRU position. */
    Entry *
    findEntry(Shard &shard, std::uint64_t hash, const Key &key)
    {
        auto indexIt = shard.index.find(hash);
        if (indexIt == shard.index.end())
            return nullptr;
        for (auto entryIt : indexIt->second) {
            if (entryIt->key == key) {
                shard.lru.splice(shard.lru.begin(), shard.lru,
                                 entryIt);
                return &*entryIt;
            }
        }
        return nullptr;
    }

    /** Evict LRU entries until @p bytes fits (caller holds the lock). */
    void
    evictUntilFits(Shard &shard, std::size_t bytes, LruOutcome &outcome)
    {
        while (shard.bytes + bytes > shardBudget_ &&
               !shard.lru.empty()) {
            Entry &victim = shard.lru.back();
            std::uint64_t victimHash = KeyHash{}(victim.key);
            auto chainIt = shard.index.find(victimHash);
            auto &chain = chainIt->second;
            for (auto cit = chain.begin(); cit != chain.end(); ++cit) {
                if ((*cit)->key == victim.key) {
                    chain.erase(cit);
                    break;
                }
            }
            if (chain.empty())
                shard.index.erase(chainIt);
            shard.bytes -= victim.bytes;
            outcome.evictedBytes += victim.bytes;
            shard.lru.pop_back();
            ++outcome.evicted;
        }
    }

    std::size_t shardBudget_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex statsMu_;
    StatGroup stats_;
};

} // namespace stm

#endif // STM_SUPPORT_SHARDED_LRU_HH
