#include "support/random.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

namespace stm
{

namespace
{

/**
 * How far inside (j, j+1) a bucket's end words must land, relative to
 * max(1, ratio), for the bucket to map to 1 + j. log1p and the divide
 * err by a few ulps (~1e-15 relative); this is some 10^8 times that.
 */
constexpr double kMargin = 1e-7;

} // namespace

GeometricTable::GeometricTable(double mean)
    : key_(std::bit_cast<std::uint64_t>(mean)),
      logQ_(std::log1p(-(1.0 / mean))),
      buckets_(std::make_unique<std::atomic<std::uint32_t>[]>(kBuckets))
{
}

const GeometricTable &
GeometricTable::lookup(double mean)
{
    // Every table made so far, keyed by the mean's bit pattern.
    static std::mutex mutex;
    static std::map<std::uint64_t, std::unique_ptr<GeometricTable>> tables;
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<GeometricTable> &table =
        tables[std::bit_cast<std::uint64_t>(mean)];
    if (!table)
        table.reset(new GeometricTable(mean));
    return *table;
}

double
GeometricTable::ratio(std::uint32_t word) const
{
    double u = word * (1.0 / 4294967296.0);
    // Guard against log(0).
    if (u >= 0.999999999)
        u = 0.999999999;
    return std::log1p(-u) / logQ_;
}

std::uint32_t
GeometricTable::classify(std::uint32_t bucket) const
{
    std::uint32_t first = bucket << kWordShift;
    double lo = ratio(first);
    double hi = ratio(first | ((1u << kWordShift) - 1));
    double j = std::floor(lo);
    double margin = kMargin * std::max(1.0, hi);
    // Written so that a NaN ratio falls back to the formula.
    if (lo - j >= margin && j + 1.0 - hi >= margin && 1.0 + j < kFormula)
        return static_cast<std::uint32_t>(1.0 + j);
    return kFormula;
}

std::uint32_t
GeometricTable::countdownSlow(std::uint32_t word, std::uint32_t c) const
{
    if (c == kUnclassified) {
        c = classify(word >> kWordShift);
        buckets_[word >> kWordShift].store(c, std::memory_order_relaxed);
        if (c != kFormula)
            return c;
    }
    double steps = std::floor(ratio(word));
    if (steps < 0.0)
        steps = 0.0;
    return static_cast<std::uint32_t>(
        1 + static_cast<std::uint64_t>(steps));
}

} // namespace stm
