/**
 * @file
 * The observable result of one simulated program run: outcome,
 * failure information, program output, collected LBR/LCR profiles,
 * CBI sampling observations, and instruction-count statistics.
 *
 * RunResult is the interface between the execution substrate and the
 * diagnosis layer: LBRLOG/LCRLOG read the profiles, LBRA/LCRA label
 * runs by outcome, CBI reads the sampled predicate counts, and the
 * overhead benches read the instruction counts.
 */

#ifndef STM_VM_RUN_RESULT_HH
#define STM_VM_RUN_RESULT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/bts.hh"
#include "hw/lbr.hh"
#include "hw/lcr.hh"
#include "isa/instruction.hh"
#include "isa/types.hh"

namespace stm
{

/** How a run ended. */
enum class RunOutcome : std::uint8_t {
    Completed,       //!< ran to completion (output may still be wrong)
    SegFault,        //!< invalid memory access
    AssertFailed,    //!< AssertEq failed
    ErrorLogged,     //!< a failure-logging call executed
    Deadlock,        //!< every live thread blocked
    StepLimit,       //!< hang: exceeded the step budget
    ArithmeticFault, //!< division by zero
};

/** Human-readable outcome name. */
std::string runOutcomeName(RunOutcome outcome);

/** Details of a failure. */
struct FailureInfo
{
    RunOutcome kind = RunOutcome::Completed;
    ThreadId thread = 0;
    std::uint32_t instrIndex = 0;
    /** Log-site id for ErrorLogged; kSegfaultSite for fault-like ends. */
    LogSiteId site = kSegfaultSite;
    std::string message;

    bool operator==(const FailureInfo &) const = default;
};

/** Which hardware record a profile snapshot came from. */
enum class ProfileKind : std::uint8_t { Lbr, Lcr };

/** One LBR/LCR snapshot collected by the driver's profile ioctl. */
struct ProfileRecord
{
    ProfileKind kind = ProfileKind::Lbr;
    LogSiteId site = 0;
    bool successSite = false;
    ThreadId thread = 0;
    std::uint64_t step = 0; //!< global step at collection time
    std::vector<BranchRecord> lbr; //!< newest first
    std::vector<LcrRecord> lcr;    //!< newest first

    bool operator==(const ProfileRecord &) const = default;
};

/** Instruction-count statistics of a run. */
struct RunStats
{
    std::uint64_t userInstructions = 0;
    std::uint64_t kernelInstructions = 0;
    /**
     * Instructions attributable to instrumentation (toggling
     * wrappers, profiling ioctls, enable-at-main, CBI countdown
     * checks). Overhead = instrumentation / (user + kernel).
     */
    std::uint64_t instrumentationInstructions = 0;
    /**
     * The one-time portion of instrumentation work (configure +
     * enable at the entry of main). Excluded by steadyOverhead(),
     * since it amortizes over any production-length run.
     */
    std::uint64_t setupInstructions = 0;
    std::uint64_t branchesRetired = 0;
    std::uint64_t memoryAccesses = 0;
    std::uint64_t contextSwitches = 0;

    std::uint64_t
    baselineInstructions() const
    {
        return userInstructions + kernelInstructions;
    }

    /** Instrumentation overhead as a fraction of baseline work. */
    double
    overhead() const
    {
        std::uint64_t base = baselineInstructions();
        if (base == 0)
            return 0.0;
        return static_cast<double>(instrumentationInstructions) /
               static_cast<double>(base);
    }

    /** Overhead excluding the one-time enable-at-main setup. */
    double
    steadyOverhead() const
    {
        std::uint64_t base = baselineInstructions();
        if (base == 0)
            return 0.0;
        std::uint64_t steady =
            instrumentationInstructions >= setupInstructions
                ? instrumentationInstructions - setupInstructions
                : 0;
        return static_cast<double>(steady) /
               static_cast<double>(base);
    }

    bool operator==(const RunStats &) const = default;
};

/** A CBI branch-predicate key: (source branch, outcome). */
using CbiPredicate = std::pair<SourceBranchId, bool>;

/** Everything observable from one run. */
struct RunResult
{
    RunOutcome outcome = RunOutcome::Completed;
    std::optional<FailureInfo> failure;
    std::vector<Word> output;
    std::vector<ProfileRecord> profiles;
    RunStats stats;

    /** CBI: times each sampled predicate was observed true. */
    std::map<CbiPredicate, std::uint32_t> cbiCounts;
    /** CBI: times each branch site was sampled at all. */
    std::map<SourceBranchId, std::uint32_t> cbiSiteSamples;

    /**
     * CCI: sampled interleaving predicates at memory accesses,
     * keyed by (access pc, observed-remote-interaction flag).
     */
    std::map<std::pair<Addr, bool>, std::uint32_t> cciCounts;
    /** CCI: times each access pc was sampled at all. */
    std::map<Addr, std::uint32_t> cciSiteSamples;

    /** BTS: the whole-execution branch trace, when enabled. */
    std::vector<BtsEntry> btsTrace;

    /**
     * PBI: coherence events sampled through performance-counter
     * overflow interrupts, keyed by (pc, state, store) packed the
     * same way as EventKey::coherence's payload: (pc, (state<<1)|st).
     */
    std::map<std::pair<Addr, std::uint8_t>, std::uint32_t> pbiSamples;

    /** True if the run ended in any fail-stop way. */
    bool
    failStop() const
    {
        return outcome != RunOutcome::Completed;
    }

    /**
     * Bit-exact equality over every observable field; determinism
     * tests lean on this to assert replay identity.
     */
    bool operator==(const RunResult &) const = default;

    /** The last profile of kind @p kind at @p site, if any. */
    const ProfileRecord *
    lastProfile(ProfileKind kind, LogSiteId site) const
    {
        const ProfileRecord *found = nullptr;
        for (const auto &p : profiles) {
            if (p.kind == kind && p.site == site)
                found = &p;
        }
        return found;
    }
};

} // namespace stm

#endif // STM_VM_RUN_RESULT_HH
