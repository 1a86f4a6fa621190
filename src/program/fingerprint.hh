/**
 * @file
 * Content-addressed fingerprints of a program and of the hook tables
 * of an instrumentation plan: the two components of the decode-cache
 * key (vm/decode_cache.hh).
 *
 *  - fingerprintProgramBase() digests everything immutable across a
 *    diagnosis campaign: instructions (all architectural fields plus
 *    the dispatch-flags overlay), data symbols, log-site metadata,
 *    source-branch metadata, and the entry point. O(program), and
 *    memoized per Program by memoizedProgramBaseFingerprint().
 *  - fingerprintHookTables() digests one plan's before/after hook
 *    tables in canonical pc order. O(sites), cheap enough to
 *    recompute at every reactive re-instrumentation.
 *
 * All digests are 64-bit FNV-1a over a fixed-width little-endian
 * serialization, so they are stable across platforms and process
 * runs.
 */

#ifndef STM_PROGRAM_FINGERPRINT_HH
#define STM_PROGRAM_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "program/program.hh"

namespace stm
{

/** Streaming FNV-1a 64-bit hasher over canonical field encodings. */
class FingerprintHasher
{
  public:
    explicit FingerprintHasher(
        std::uint64_t basis = 0xCBF29CE484222325ull)
        : h_(basis)
    {
    }

    void
    byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001B3ull;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void u32(std::uint32_t v) { u64(v); }

    void boolean(bool b) { byte(b ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_;
};

/**
 * Digest of the campaign-immutable program content: code (every
 * architectural and metadata field), instrFlags, symbols, functions,
 * branches, log sites, entry. Does NOT include the instrumentation
 * plan.
 */
std::uint64_t fingerprintProgramBase(const Program &prog);

/**
 * Digest of the hook side tables of a plan in ascending pc order
 * (canonical — the unordered_map iteration order never leaks into
 * the digest); scalar knobs are excluded. This is the decode-cache
 * key component: the predecoded operand stream
 * depends on the program and on which pcs carry hooks, but not on
 * the scalar knobs, so overlay publication during reactive
 * re-instrumentation re-predecodes only when a hook table actually
 * changed.
 */
std::uint64_t fingerprintHookTables(const Instrumentation &instr);

/**
 * fingerprintProgramBase() through the Program's memo slot: computed
 * on first use, O(1) after. Thread-safe (racing computations store
 * the same pure-function value).
 */
std::uint64_t memoizedProgramBaseFingerprint(const Program &prog);

} // namespace stm

#endif // STM_PROGRAM_FINGERPRINT_HH
