/**
 * @file
 * The run's seeded RNG stream, its record of seed reads, and the CBI
 * sampling rule.
 *
 * A run reads its seed through SeedStream only, and every read lands
 * in the stream's SeedRecord. Reads come in three kinds:
 *  - decisions: nextBool(p, probe) draws (the preemption probe, the
 *    IRQ probe);
 *  - other reads: nextGeometric() (the CCI countdown) and seed reads
 *    reported with noteSeedRead() (the PBI counters' jitter, which
 *    reads the seed directly);
 *  - the CBI countdown, which draws from cbiStream().
 *
 * Two facts follow. A run with no decisions and no other reads took
 * the same path whatever its seed: only its CBI samples depend on the
 * seed, and replayCbi() (vm/machine.hh) reproduces them from a
 * recorded visit sequence. And a run whose every read was a decision
 * is a function of its decisions' outcomes: RunMemo (exec/run_memo.hh)
 * records that path and hands its result to every later seed that
 * draws the same outcomes. A new seed consumer that draws through
 * nextGeometric() is accounted for without further work; one that
 * draws through nextBool() needs its own Probe, with its probability
 * fixed by the MachineOptions, and RunMemo's table of probabilities.
 */

#ifndef STM_VM_SEED_STREAM_HH
#define STM_VM_SEED_STREAM_HH

#include <cstdint>
#include <vector>

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

/**
 * The two probes that draw decisions (vm/interp_loop.inc). Each draws
 * with one probability for the whole run, fixed by the MachineOptions,
 * so a recorded decision names its probe, not the probability.
 */
enum class Probe : std::uint8_t
{
    Preempt = 0, //!< seeded preemption, sched.preemptSharedProb
    Irq = 1,     //!< interrupt delivery, irq.prob
};

/** What one run read from its seed; see the file comment. */
class SeedRecord
{
  public:
    /**
     * Keep the decision path from here on: one byte per decision,
     * probe << 1 | outcome. Call before the first read.
     */
    void startPath() { recording_ = true; }

    /** A decision of @p probe that came out @p outcome. */
    void
    decision(Probe probe, bool outcome)
    {
        ++decisions_;
        if (recording_) {
            path_.push_back(static_cast<std::uint8_t>(
                static_cast<unsigned>(probe) << 1 | unsigned{outcome}));
        }
    }

    /** A geometric draw or a direct read of the seed. */
    void
    otherRead()
    {
        otherReads_ = true;
        recording_ = false;
    }

    /** A draw of the CBI countdown. */
    void cbiRead() { recording_ = false; }

    /** nextBool draws so far. */
    std::uint64_t decisions() const { return decisions_; }
    /** True once the run read its seed other than by a decision or CBI. */
    bool otherReads() const { return otherReads_; }
    /**
     * True when the path was kept since startPath() and holds every
     * seed read of the run: no other read and no CBI draw.
     */
    bool pathComplete() const { return recording_; }
    const std::vector<std::uint8_t> &path() const { return path_; }

  private:
    std::uint64_t decisions_ = 0;
    bool otherReads_ = false;
    bool recording_ = false;
    std::vector<std::uint8_t> path_;
};

/** See the file comment. */
class SeedStream
{
  public:
    /** The PCG stream selector every run draws from. */
    static constexpr std::uint64_t kStream = 7;

    explicit SeedStream(std::uint64_t seed) : pcg_(seed, kStream) {}

    /** A Bernoulli draw: a decision of @p probe. */
    bool
    nextBool(double p, Probe probe)
    {
        bool outcome = pcg_.nextBool(p);
        record_.decision(probe, outcome);
        return outcome;
    }

    /** A geometric draw by a non-CBI consumer. */
    std::uint32_t
    nextGeometric(double mean)
    {
        record_.otherRead();
        return pcg_.nextGeometric(mean);
    }

    /** Record a consumer that derives state from the seed directly. */
    void noteSeedRead() { record_.otherRead(); }

    /** The stream CbiCountdown draws from. */
    Pcg32 &
    cbiStream()
    {
        record_.cbiRead();
        return pcg_;
    }

    SeedRecord &record() { return record_; }
    const SeedRecord &record() const { return record_; }

  private:
    Pcg32 pcg_;
    SeedRecord record_;
};

} // namespace stm

#endif // STM_VM_SEED_STREAM_HH
