#include "cache/cache.hh"

#include <bit>
#include <string>
#include <utility>

#include "support/logging.hh"

namespace stm
{

namespace
{

bool
isPowerOfTwo(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

std::uint32_t
log2u32(std::uint32_t v)
{
    std::uint32_t shift = 0;
    while ((std::uint32_t{1} << shift) < v)
        ++shift;
    return shift;
}

/**
 * A clean cache's buffers: every line default, every MRU hint and
 * dirty bit zero. Kept per thread so no lock sits on machine boot.
 */
struct CacheBuffers
{
    std::vector<L1Cache::Line> lines;
    std::vector<std::uint32_t> mruWay;
    std::vector<std::uint64_t> dirty;
};

/**
 * Buffers of destroyed caches, newest last. When full, the oldest
 * entry is dropped, so the geometry in current use stays on the list.
 */
struct BufferFreeList
{
    static constexpr std::size_t kCap = 8;
    std::vector<CacheBuffers> entries;

    BufferFreeList() { entries.reserve(kCap); }
    ~BufferFreeList();
};

// Trivially destructible, so it stays readable while thread-local
// destructors run: a cache destroyed after its thread's free list
// (one owned by a static or another thread-local object) just frees
// its buffers.
thread_local bool freeListGone = false;

BufferFreeList::~BufferFreeList()
{
    freeListGone = true;
}

BufferFreeList *
freeList()
{
    if (freeListGone)
        return nullptr;
    thread_local BufferFreeList list;
    return &list;
}

} // namespace

L1Cache::L1Cache(std::uint32_t core_id, const CacheGeometry &geometry)
    : coreId_(core_id),
      geometry_(geometry),
      numSets_(0),
      blockShift_(0),
      setMask_(0),
      setsArePow2_(false),
      tick_(0)
{
    if (!isPowerOfTwo(geometry.blockBytes) ||
        !isPowerOfTwo(geometry.sizeBytes) || geometry.assoc == 0) {
        fatal("invalid cache geometry: size={} assoc={} block={}",
              geometry.sizeBytes, geometry.assoc, geometry.blockBytes);
    }
    std::uint32_t blocks = geometry.sizeBytes / geometry.blockBytes;
    if (blocks % geometry.assoc != 0)
        fatal("cache associativity {} does not divide {} blocks",
              geometry.assoc, blocks);
    numSets_ = blocks / geometry.assoc;
    blockShift_ = log2u32(geometry.blockBytes);
    setsArePow2_ = isPowerOfTwo(numSets_);
    setMask_ = setsArePow2_ ? numSets_ - 1 : 0;
    if (BufferFreeList *list = freeList()) {
        auto &entries = list->entries;
        for (std::size_t i = entries.size(); i-- > 0;) {
            if (entries[i].lines.size() == blocks &&
                entries[i].mruWay.size() == numSets_) {
                lines_ = std::move(entries[i].lines);
                mruWay_ = std::move(entries[i].mruWay);
                dirty_ = std::move(entries[i].dirty);
                entries.erase(entries.begin() +
                              static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }
    lines_.resize(blocks);
    mruWay_.assign(numSets_, 0);
    dirty_.assign((numSets_ + 63) / 64, 0);
}

L1Cache::~L1Cache()
{
    BufferFreeList *list = freeList();
    if (!list)
        return;
    reset();
    if (list->entries.size() == BufferFreeList::kCap)
        list->entries.erase(list->entries.begin());
    list->entries.push_back(CacheBuffers{std::move(lines_),
                                         std::move(mruWay_),
                                         std::move(dirty_)});
}

L1Cache::Line *
L1Cache::findLineSlow(Line *base, std::uint32_t set,
                      std::uint32_t hint, Addr block)
{
    for (std::uint32_t w = 0; w < geometry_.assoc; ++w) {
        if (w == hint)
            continue;
        Line &line = base[w];
        if (line.state != MesiState::Invalid && line.tag == block) {
            mruWay_[set] = w;
            return &line;
        }
    }
    return nullptr;
}

MesiState
L1Cache::stateOf(Addr addr) const
{
    const Line *line = findLine(blockOf(addr));
    return line ? line->state : MesiState::Invalid;
}

bool
L1Cache::fill(Addr block, MesiState state)
{
    if (state == MesiState::Invalid)
        panic("fill with Invalid state");
    std::uint32_t set = setIndex(block);
    Line *base = &lines_[std::size_t{set} * geometry_.assoc];
    Line *victim = nullptr;
    std::uint32_t victimWay = 0;
    // Prefer an invalid way; otherwise evict true-LRU.
    for (std::uint32_t w = 0; w < geometry_.assoc; ++w) {
        Line &line = base[w];
        if (line.state == MesiState::Invalid) {
            victim = &line;
            victimWay = w;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse) {
            victim = &line;
            victimWay = w;
        }
    }
    bool writeback = false;
    if (victim->state != MesiState::Invalid) {
        ++evictions_;
        if (victim->state == MesiState::Modified) {
            writeback = true;
            ++writebacks_;
        }
    }
    victim->tag = block;
    victim->state = state;
    victim->lastUse = ++tick_;
    mruWay_[set] = victimWay;
    markDirty(set);
    ++fills_;
    return writeback;
}

void
L1Cache::setState(Addr block, MesiState state)
{
    Line *line = findLine(block);
    if (!line)
        panic("setState on non-resident block {}", block);
    line->state = state;
}

void
L1Cache::touch(Addr block)
{
    Line *line = findLine(block);
    if (line)
        line->lastUse = ++tick_;
}

void
L1Cache::snoopRead(Addr block)
{
    Line *line = findLine(block);
    if (!line)
        return;
    if (line->state == MesiState::Modified) {
        ++writebacks_;
        line->state = MesiState::Shared;
    } else if (line->state == MesiState::Exclusive) {
        line->state = MesiState::Shared;
    }
}

void
L1Cache::snoopWrite(Addr block)
{
    Line *line = findLine(block);
    if (!line)
        return;
    if (line->state == MesiState::Modified)
        ++writebacks_;
    line->state = MesiState::Invalid;
    ++invalidationsReceived_;
}

void
L1Cache::reset()
{
    const std::size_t assoc = geometry_.assoc;
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
        for (std::uint64_t bits = dirty_[w]; bits != 0;
             bits &= bits - 1) {
            std::size_t set = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(bits));
            for (std::size_t i = set * assoc; i < (set + 1) * assoc; ++i)
                lines_[i] = Line{};
            mruWay_[set] = 0;
        }
        dirty_[w] = 0;
    }
    tick_ = 0;
}

StatGroup
L1Cache::stats() const
{
    StatGroup group("l1d" + std::to_string(coreId_));
    group.counter("fills") += fills_.value();
    group.counter("evictions") += evictions_.value();
    group.counter("writebacks") += writebacks_.value();
    group.counter("invalidations_received") +=
        invalidationsReceived_.value();
    return group;
}

} // namespace stm
