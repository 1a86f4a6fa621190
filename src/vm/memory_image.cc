#include "vm/memory_image.hh"

#include "support/logging.hh"

namespace stm
{

MemoryImage::MemoryImage()
    // An impossible page base (not page-aligned) so the first access
    // always misses the translation cache.
    : cachedPageBase_(~Addr{0})
{
    globals_.base = layout::kGlobalBase;
    heap_.base = layout::kHeapBase;
    stacks_.base = layout::kStackBase;
}

MemoryImage::Segment &
MemoryImage::segmentFor(Addr addr)
{
    if (addr >= layout::kStackBase)
        return stacks_;
    if (addr >= layout::kHeapBase)
        return heap_;
    if (addr >= layout::kGlobalBase)
        return globals_;
    panic("memory image access outside any data segment: 0x{}", addr);
}

Word *
MemoryImage::materialize(Addr addr)
{
    Segment &seg = segmentFor(addr);
    std::size_t index =
        static_cast<std::size_t>((addr - seg.base) >> kPageShift);
    if (index >= seg.pages.size())
        seg.pages.resize(index + 1);
    if (!seg.pages[index]) {
        // Zero-filled materialization: a never-written word reads 0,
        // exactly like the seed's absent hash-map entry.
        seg.pages[index] = std::make_unique<Word[]>(kPageWords);
    }
    return seg.pages[index].get();
}

Word
MemoryImage::loadSlow(Addr addr, Addr page)
{
    cachedPageBase_ = page;
    cachedPage_ = materialize(addr);
    return cachedPage_[(addr & kPageMask) >> 3];
}

void
MemoryImage::storeSlow(Addr addr, Addr page, Word value)
{
    cachedPageBase_ = page;
    cachedPage_ = materialize(addr);
    cachedPage_[(addr & kPageMask) >> 3] = value;
}

} // namespace stm
