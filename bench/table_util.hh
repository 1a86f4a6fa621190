/**
 * @file
 * Small helpers shared by the table-reproduction benches: strict
 * numeric flags, fixed-width cells and the paper's "-" / "inf" /
 * "N/A" renderings.
 */

#ifndef STM_BENCH_TABLE_UTIL_HH
#define STM_BENCH_TABLE_UTIL_HH

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_parse.hh"
#include "exec/run_pool.hh"

namespace stm::bench
{

/**
 * The value of numeric flag @p opt, parsed strictly by
 * tools::parseCount: a sign, junk or a value outside [@p lo, @p hi]
 * prints why and exits 2 before the bench does any work.
 */
template <typename T>
T
countFlag(const char *opt, const char *text, std::type_identity_t<T> lo,
          std::type_identity_t<T> hi)
{
    T value = 0;
    if (!tools::parseCount(opt, text, &value, lo, hi))
        std::exit(2);
    return value;
}

/**
 * Install the worker count for this bench process from a `--jobs N`
 * argument, N in 1..kMaxJobs (without it: STM_JOBS, then hardware
 * concurrency). Any other value, or a missing one, exits 2. Every
 * table driver calls this first; the run-execution engine guarantees
 * identical measured values for any worker count, so --jobs only
 * changes how long the bench takes.
 */
inline void
applyJobsFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--jobs")
            continue;
        if (i + 1 == argc) {
            std::cerr << "--jobs wants a value\n";
            std::exit(2);
        }
        setDefaultJobs(countFlag<unsigned>("--jobs", argv[++i], 1,
                                           kMaxJobs));
    }
}

/** Fixed-width left-aligned cell. */
inline std::string
cell(const std::string &text, int width)
{
    std::ostringstream os;
    os << std::left << std::setw(width) << text;
    return os.str();
}

/** Render a 1-based position: 0 => "-", negative => "N/A". */
inline std::string
position(long p, bool related = false)
{
    if (p < 0)
        return "N/A";
    if (p == 0)
        return "-";
    return std::to_string(p) + (related ? "*" : "");
}

/** Render a patch distance: negative => "inf". */
inline std::string
distance(int d)
{
    if (d < 0)
        return "inf";
    return std::to_string(d);
}

/** Render a percentage with two decimals. */
inline std::string
percent(double fraction)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << fraction * 100.0;
    return os.str();
}

} // namespace stm::bench

#endif // STM_BENCH_TABLE_UTIL_HH
