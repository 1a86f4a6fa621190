/**
 * @file
 * The flat paged data-memory image of one simulated machine.
 *
 * Replaces the seed's `unordered_map<Addr, Word>` with a direct-mapped
 * page table over the fixed address-space layout (isa/types.hh): one
 * table per segment (globals, heap, stacks), indexed by
 * `(addr - segment base) >> kPageShift`. Pages are zero-filled and
 * materialized on first touch, which preserves the map's semantics
 * exactly — a never-written valid word reads as 0 — while making the
 * common access shift + mask + load. Each page is owned by its image
 * alone.
 *
 * A one-entry translation cache (the last page touched) short-circuits
 * the segment dispatch entirely for the dominant same-page access
 * streams (stack frames, array walks); its hit rate is exported as the
 * `vm.mem_fast_rate` gauge.
 *
 * *Validity* is not this class's job: the Machine checks segment
 * bounds (globals end, heap brk, live stack spans) before touching the
 * image, exactly as the seed interpreter did, so segfault behavior is
 * bit-identical. The image only requires that accessed addresses lie
 * in some segment.
 */

#ifndef STM_VM_MEMORY_IMAGE_HH
#define STM_VM_MEMORY_IMAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/types.hh"

namespace stm
{

/** Paged data memory for one Machine (word-granular, 8-byte cells). */
class MemoryImage
{
  public:
    static constexpr Addr kPageShift = 12; //!< 4 KiB pages
    static constexpr Addr kPageBytes = Addr{1} << kPageShift;
    static constexpr Addr kPageMask = kPageBytes - 1;
    static constexpr std::size_t kPageWords = kPageBytes / 8;

    MemoryImage();

    MemoryImage(const MemoryImage &) = delete;
    MemoryImage &operator=(const MemoryImage &) = delete;

    /** Load the word cell containing @p addr (0 if never written). */
    Word
    load(Addr addr)
    {
        ++accesses_;
        Addr page = addr & ~kPageMask;
        if (page == cachedPageBase_) {
            ++fastHits_;
            return cachedPage_[(addr & kPageMask) >> 3];
        }
        return loadSlow(addr, page);
    }

    /** Store @p value into the word cell containing @p addr. */
    void
    store(Addr addr, Word value)
    {
        ++accesses_;
        Addr page = addr & ~kPageMask;
        if (page == cachedPageBase_) {
            ++fastHits_;
            cachedPage_[(addr & kPageMask) >> 3] = value;
            return;
        }
        storeSlow(addr, page, value);
    }

    /** Total accesses routed through the image. */
    std::uint64_t accesses() const { return accesses_; }
    /** Accesses that hit the one-entry translation cache. */
    std::uint64_t fastHits() const { return fastHits_; }

  private:
    /** One segment's direct-mapped page table. */
    struct Segment
    {
        Addr base = 0;
        std::vector<std::unique_ptr<Word[]>> pages;
    };

    Word loadSlow(Addr addr, Addr page);
    void storeSlow(Addr addr, Addr page, Word value);
    Segment &segmentFor(Addr addr);
    /** The page holding @p addr, zero-filled on first touch. */
    Word *materialize(Addr addr);

    Segment globals_;
    Segment heap_;
    Segment stacks_;

    // One-entry translation cache: base address of the last page
    // touched and the page's storage.
    Addr cachedPageBase_;
    Word *cachedPage_ = nullptr;

    std::uint64_t accesses_ = 0;
    std::uint64_t fastHits_ = 0;
};

} // namespace stm

#endif // STM_VM_MEMORY_IMAGE_HH
