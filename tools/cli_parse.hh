/**
 * @file
 * Strict numeric option parsing shared by the command-line tools and
 * the benches.
 *
 * Every numeric flag of stm_diagnose, stm_trace and stm_collector, and
 * every count flag of the benches (bench/table_util.hh), goes through
 * parseCount, so a sign, trailing junk, overflow or a value outside
 * the flag's range is a usage error (exit 2) instead of std::stoul's
 * silent wrap of "-1" to the type's maximum.
 */

#ifndef STM_TOOLS_CLI_PARSE_HH
#define STM_TOOLS_CLI_PARSE_HH

#include <charconv>
#include <cstring>
#include <iostream>
#include <limits>
#include <type_traits>

namespace stm::tools
{

/**
 * Parse @p text as a decimal count in [@p lo, @p hi] into @p out.
 * On failure, say why on stderr (naming option @p opt) and leave
 * @p out untouched.
 */
template <typename T>
bool
parseCount(const char *opt, const char *text, T *out,
           std::type_identity_t<T> lo = 0,
           std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    const char *end = text + std::strlen(text);
    T value = 0;
    auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
        std::cerr << opt << " wants a whole number from " << +lo;
        if (hi != std::numeric_limits<T>::max())
            std::cerr << " to " << +hi;
        else
            std::cerr << " up";
        std::cerr << ", got '" << text << "'\n";
        return false;
    }
    *out = value;
    return true;
}

/** Largest MiB count whose byte size still fits a std::size_t. */
constexpr std::size_t kMaxMebibytes =
    std::numeric_limits<std::size_t>::max() >> 20;

} // namespace stm::tools

#endif // STM_TOOLS_CLI_PARSE_HH
