/**
 * @file
 * Hardware performance counters for L1-D cache-coherence events
 * (Section 2.2) — the substrate PBI builds on and the facility LCR
 * extends "from being able to count to being able to record while
 * counting".
 *
 * Each counter is programmed with an event code (load/store), a
 * unit-mask of pre-access MESI states (Table 2), and privilege-level
 * filters. Counters support interrupt-on-overflow sampling, which the
 * PBI baseline uses to sample the program counters of matching
 * accesses.
 */

#ifndef STM_HW_PERF_COUNTER_HH
#define STM_HW_PERF_COUNTER_HH

#include <cstdint>
#include <functional>

#include "cache/coherence_event.hh"
#include "hw/msr.hh"

namespace stm
{

/** One programmable performance-counter register. */
class PerfCounter
{
  public:
    /** Callback invoked at counter overflow with the triggering event. */
    using OverflowHandler = std::function<void(const CoherenceEvent &)>;

    /**
     * Program the counter.
     * @param event_code msr::kEventLoad or msr::kEventStore
     * @param unit_mask OR of msr::kUmask* state bits
     * @param count_kernel include ring-0 accesses
     * @param count_user include user-level accesses
     */
    void configure(std::uint8_t event_code, std::uint8_t unit_mask,
                   bool count_kernel, bool count_user);

    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    /**
     * Arm interrupt-on-overflow sampling: @p handler fires about
     * every @p period matching events (0 disables sampling; the
     * period is randomized PEBS-style, except period 1 which samples
     * every event).
     */
    void setSampling(std::uint64_t period, OverflowHandler handler);

    /**
     * Seed the period-randomization state (per-run, so repeated runs
     * sample different positions of near-identical event streams).
     */
    void seedJitter(std::uint64_t seed);

    /**
     * Observe one retired access; count it if it matches. Inline:
     * every counter of every core sees every data access, so the
     * disabled/non-matching exit must not cost a function call.
     */
    void
    observe(const CoherenceEvent &event)
    {
        if (!enabled_ || !matches(event))
            return;
        ++count_;
        if (period_ != 0 && handler_) {
            if (++sinceOverflow_ >= threshold_) {
                sinceOverflow_ = 0;
                threshold_ = nextThreshold();
                handler_(event);
            }
        }
    }

    /** Does @p event match the programmed selection? */
    bool
    matches(const CoherenceEvent &event) const
    {
        if (event.kernel && !countKernel_)
            return false;
        if (!event.kernel && !countUser_)
            return false;
        std::uint8_t expected =
            event.store ? msr::kEventStore : msr::kEventLoad;
        if (eventCode_ != expected)
            return false;
        return (unitMask_ & mesiUnitMask(event.observed)) != 0;
    }

    std::uint64_t count() const { return count_; }
    void reset() { count_ = 0; sinceOverflow_ = 0; }

  private:
    std::uint8_t eventCode_ = 0;
    std::uint8_t unitMask_ = 0;
    bool countKernel_ = false;
    bool countUser_ = true;
    bool enabled_ = false;
    std::uint64_t count_ = 0;
    std::uint64_t period_ = 0;
    std::uint64_t sinceOverflow_ = 0;
    /**
     * Randomized-period state: real PMUs jitter the sampling period
     * (e.g. PEBS randomization) so fixed-period sampling does not
     * alias against periodic event streams.
     */
    std::uint64_t jitterState_ = 0x9E3779B97F4A7C15ULL;
    std::uint64_t threshold_ = 0;
    OverflowHandler handler_;

    std::uint64_t nextThreshold();
};

} // namespace stm

#endif // STM_HW_PERF_COUNTER_HH
