/**
 * @file
 * The run's seeded RNG stream and the CBI sampling rule.
 *
 * A run reads its seed through SeedStream only. Draws come in two
 * kinds: the CBI sampling countdown (CbiCountdown, through
 * cbiStream()) and everything else (the preemption probe, the IRQ
 * probe, the CCI countdown, plus the PBI counters' jitter seeding,
 * which reads the seed directly and reports it with noteSeedRead()).
 * Every draw of the second kind bumps otherSeedReads(). A run whose
 * count stays at 0 followed the same path whatever its seed: only its
 * CBI samples depend on the seed, and replayCbi() (vm/machine.hh)
 * reproduces them from a recorded visit sequence. A new seed consumer
 * that draws through nextBool()/nextGeometric() is counted without
 * further work.
 */

#ifndef STM_VM_SEED_STREAM_HH
#define STM_VM_SEED_STREAM_HH

#include <cstdint>

#include "support/random.hh"

namespace stm
{

/**
 * The CBI sampling rule, shared by Machine::cbiSample and the replay:
 * a geometric countdown per thread, first drawn at the first site
 * visit and redrawn at every sampled visit.
 */
class CbiCountdown
{
  public:
    /** Instructions charged for every site visit (decrement-and-test). */
    static constexpr std::uint64_t kVisitCost = 1;
    /** Instructions charged on top for a sampled visit. */
    static constexpr std::uint64_t kSampleCost = 15;

    /** One site visit; true when this visit is sampled. */
    bool
    visit(Pcg32 &rng, double mean)
    {
        if (left_ == 0)
            left_ = rng.nextGeometric(mean);
        if (--left_ != 0)
            return false;
        left_ = rng.nextGeometric(mean);
        return true;
    }

    /**
     * Jump to the next sampled visit: returns how many visits pass
     * unsampled before it, leaving the countdown as visit() would
     * right after that sample. Equivalent to calling visit() until it
     * returns true, at one draw per sample instead of one call per
     * visit.
     */
    std::uint64_t
    skipToSample(Pcg32 &rng, double mean)
    {
        if (left_ == 0)
            left_ = rng.nextGeometric(mean);
        std::uint64_t skipped = left_ - 1;
        left_ = rng.nextGeometric(mean);
        return skipped;
    }

  private:
    std::uint32_t left_ = 0;
};

/** See the file comment. */
class SeedStream
{
  public:
    /** The PCG stream selector every run draws from. */
    static constexpr std::uint64_t kStream = 7;

    explicit SeedStream(std::uint64_t seed) : pcg_(seed, kStream) {}

    /** A Bernoulli draw by a non-CBI consumer. */
    bool
    nextBool(double p)
    {
        ++otherSeedReads_;
        return pcg_.nextBool(p);
    }

    /** A geometric draw by a non-CBI consumer. */
    std::uint32_t
    nextGeometric(double mean)
    {
        ++otherSeedReads_;
        return pcg_.nextGeometric(mean);
    }

    /** Count a consumer that derives state from the seed directly. */
    void noteSeedRead() { ++otherSeedReads_; }

    /** The stream CbiCountdown draws from (uncounted). */
    Pcg32 &cbiStream() { return pcg_; }

    /** Seed reads other than the CBI countdown so far this run. */
    std::uint64_t otherSeedReads() const { return otherSeedReads_; }

  private:
    Pcg32 pcg_;
    std::uint64_t otherSeedReads_ = 0;
};

} // namespace stm

#endif // STM_VM_SEED_STREAM_HH
