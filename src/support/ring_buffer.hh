/**
 * @file
 * Fixed-capacity circular record buffer.
 *
 * This is the data structure at the heart of the hardware short-term
 * memory facilities (LBR and LCR): a ring of the most recent K records
 * where each new record evicts the oldest one. Capacity is fixed at
 * construction time, mirroring the fixed number of machine registers
 * backing LBR/LCR on real hardware.
 */

#ifndef STM_SUPPORT_RING_BUFFER_HH
#define STM_SUPPORT_RING_BUFFER_HH

#include <cstddef>
#include <vector>

namespace stm
{

/**
 * A circular buffer holding the most recent @c capacity() records.
 *
 * Records are pushed with push(); once full, each push evicts the
 * oldest record. Records can be read newest-first (the natural order
 * for failure diagnosis: entry 0 is the most recent event before the
 * failure) or oldest-first.
 */
template <typename T>
class RingBuffer
{
  public:
    /** Construct a ring with room for @p capacity records. */
    explicit RingBuffer(std::size_t capacity)
        : slots_(capacity), head_(0), size_(0)
    {
    }

    /** Number of record slots (the hardware register count). */
    std::size_t capacity() const { return slots_.size(); }

    /** Number of valid records currently stored. */
    std::size_t size() const { return size_; }

    /** True if no records have been recorded since the last clear(). */
    bool empty() const { return size_ == 0; }

    /** True once the ring has wrapped at least once. */
    bool full() const { return size_ == slots_.size(); }

    /** Discard all records (the DRIVER_CLEAN_* ioctl). */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /**
     * Record a new entry, evicting the oldest one when full.
     * A zero-capacity ring silently drops every record.
     */
    void
    push(const T &value)
    {
        if (slots_.empty())
            return;
        slots_[head_] = value;
        // A compare, not a division: this runs for every LBR/LCR record.
        if (++head_ == slots_.size())
            head_ = 0;
        if (size_ < slots_.size())
            ++size_;
    }

    /**
     * The i-th most recent record; newest(0) is the latest record.
     * @pre i < size()
     */
    const T &
    newest(std::size_t i) const
    {
        std::size_t idx =
            (head_ + slots_.size() - 1 - i) % slots_.size();
        return slots_[idx];
    }

    /**
     * The i-th oldest record still retained; oldest(0) is the first
     * record that has not yet been evicted.
     * @pre i < size()
     */
    const T &
    oldest(std::size_t i) const
    {
        return newest(size_ - 1 - i);
    }

    /** Snapshot of the contents, newest record first. */
    std::vector<T>
    snapshotNewestFirst() const
    {
        std::vector<T> out;
        out.reserve(size_);
        for (std::size_t i = 0; i < size_; ++i)
            out.push_back(newest(i));
        return out;
    }

    /** Snapshot of the contents, oldest record first. */
    std::vector<T>
    snapshotOldestFirst() const
    {
        std::vector<T> out;
        out.reserve(size_);
        for (std::size_t i = 0; i < size_; ++i)
            out.push_back(oldest(i));
        return out;
    }

  private:
    std::vector<T> slots_;
    std::size_t head_;
    std::size_t size_;
};

} // namespace stm

#endif // STM_SUPPORT_RING_BUFFER_HH
