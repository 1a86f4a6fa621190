/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of randomness in the simulator (scheduler preemption,
 * CBI sampling countdowns, workload generators) draws from a seeded
 * Pcg32 instance so that every experiment in the paper reproduction is
 * replayable bit-for-bit. Wall-clock seeding is deliberately not
 * provided.
 */

#ifndef STM_SUPPORT_RANDOM_HH
#define STM_SUPPORT_RANDOM_HH

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

namespace stm
{

/**
 * PCG32 generator (O'Neill, 2014): small, fast, statistically solid,
 * and fully deterministic given (seed, stream).
 */
class Pcg32
{
  public:
    /** Construct from a seed and an optional stream selector. */
    explicit Pcg32(std::uint64_t seed, std::uint64_t stream = 1)
        : state_(0), inc_((stream << 1u) | 1u)
    {
        next();
        state_ += seed;
        next();
    }

    /** Next raw 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** Uniform integer in [0, bound) with rejection to avoid bias. */
    std::uint32_t
    nextBounded(std::uint32_t bound)
    {
        if (bound <= 1)
            return 0;
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    nextBool(double p)
    {
        return nextDouble() < p;
    }

    /**
     * Sample a geometric countdown with mean @p mean (support {1,2,..}).
     * Used by the CBI baseline's sampling transformation: the countdown
     * to the next sampled instrumentation site. One raw draw per call
     * (none when @p mean <= 1), mapped through the mean's
     * GeometricTable.
     */
    std::uint32_t nextGeometric(double mean);

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

/**
 * The countdown Pcg32::nextGeometric returns for each 32-bit draw under
 * one mean: inverse-CDF sampling of Geometric(p = 1/mean),
 *
 *     u = min(word / 2^32, 0.999999999)
 *     countdown = 1 + max(0, floor(log1p(-u) / log1p(-p)))
 *
 * evaluated through a table of 2^16 buckets indexed by the word's top
 * 16 bits. The ratio only rises with the word, so a bucket whose first
 * and last words both land well inside (j, j+1) maps every word in it
 * to 1 + j; any other bucket evaluates the formula above, bit for bit.
 * Buckets are classified on first use. There is one table per distinct
 * mean for the life of the process (256 KiB each), shared by every
 * thread: a bucket is a relaxed atomic, and threads that race to
 * classify it store the same value.
 */
class GeometricTable
{
  public:
    /** Bucket count: one per value of a word's top 16 bits. */
    static constexpr std::uint32_t kBuckets = 1u << 16;

    /**
     * The table for @p mean (> 1). The last table a thread used is
     * cached thread-locally, so a run of draws on one mean takes no
     * lock.
     */
    static const GeometricTable &
    forMean(double mean)
    {
        thread_local const GeometricTable *last = nullptr;
        if (!last || std::bit_cast<std::uint64_t>(mean) != last->key_)
            last = &lookup(mean);
        return *last;
    }

    /** The countdown for raw draw @p word. */
    std::uint32_t
    countdown(std::uint32_t word) const
    {
        std::uint32_t c =
            buckets_[word >> kWordShift].load(std::memory_order_relaxed);
        if (c != kUnclassified && c != kFormula) [[likely]]
            return c;
        return countdownSlow(word, c);
    }

  private:
    static constexpr unsigned kWordShift = 16;
    static constexpr std::uint32_t kUnclassified = 0;
    static constexpr std::uint32_t kFormula = 0xffffffffu;

    explicit GeometricTable(double mean);

    static const GeometricTable &lookup(double mean);

    std::uint32_t countdownSlow(std::uint32_t word, std::uint32_t c) const;
    std::uint32_t classify(std::uint32_t bucket) const;
    /** log1p(-u) / log1p(-p) for @p word, before the floor. */
    double ratio(std::uint32_t word) const;

    /** The mean's bit pattern: NaN means compare equal too. */
    std::uint64_t key_;
    /** log1p(-p), computed once per mean. */
    double logQ_;
    std::unique_ptr<std::atomic<std::uint32_t>[]> buckets_;
};

inline std::uint32_t
Pcg32::nextGeometric(double mean)
{
    if (mean <= 1.0)
        return 1;
    std::uint32_t word = next();
    return GeometricTable::forMean(mean).countdown(word);
}

} // namespace stm

#endif // STM_SUPPORT_RANDOM_HH
