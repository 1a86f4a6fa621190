/**
 * @file
 * The CBI baseline (Cooperative Bug Isolation, Liblit et al.): branch
 * predicates evaluated at randomly sampled instrumentation sites,
 * aggregated over many success and failure runs, scored with the
 * Importance metric.
 *
 * This is the head-to-head comparator of Table 6: with its default
 * 1/100 sampling rate CBI needs on the order of a thousand failing
 * runs where LBRA needs ten, and its instrumentation costs an order
 * of magnitude more run-time overhead.
 *
 * A campaign's attempts differ only in their seed. When a phase's
 * first attempt reads its seed only through the CBI sampling
 * countdown (Machine::seedInvariant), every attempt follows that
 * attempt's path: runCbi records its CBI site visits once and
 * produces each attempt's RunResult by replaying the countdown under
 * the attempt's seed (replayCbi). Otherwise (preemption, interrupts,
 * CCI/PBI sampling, several threads) it executes every attempt. Both
 * paths give bit-identical results; see DESIGN.md §5.
 */

#ifndef STM_BASELINE_CBI_HH
#define STM_BASELINE_CBI_HH

#include <cstdint>
#include <vector>

#include "baseline/liblit.hh"
#include "diag/workload.hh"
#include "program/program.hh"

namespace stm
{

/** CBI experiment configuration (paper defaults). */
struct CbiOptions
{
    /** Mean sampling period (the paper's 1/100 rate). */
    double meanPeriod = 100.0;
    /** Failing runs to aggregate (the paper uses 1000). */
    std::uint32_t failureRuns = 1000;
    /** Successful runs to aggregate (the paper uses 1000). */
    std::uint32_t successRuns = 1000;
    /** Budget of total run attempts. */
    std::uint64_t maxAttempts = 2000000;
    /**
     * Worker threads for run execution (0 = STM_JOBS, else hardware
     * concurrency); results are bit-identical for any value.
     */
    unsigned jobs = 0;
};

/** One scored CBI branch predicate. */
struct CbiPredicateScore
{
    SourceBranchId branch = 0;
    bool outcome = false;
    LiblitTally tally;
    LiblitScore score;
};

/** Result of one CBI campaign. */
struct CbiResult
{
    bool completed = false;
    std::vector<CbiPredicateScore> ranking; //!< importance-descending
    std::uint64_t failureRunsUsed = 0;
    std::uint64_t successRunsUsed = 0;
    std::uint64_t failureAttempts = 0;

    /** 1-based rank of predicate (branch, outcome); 0 if unranked. */
    std::size_t positionOf(SourceBranchId branch, bool outcome) const;
    /** 1-based rank of the best predicate on @p branch; 0 if none. */
    std::size_t positionOfBranch(SourceBranchId branch) const;
};

/** Run a CBI campaign on @p prog with the given workloads. */
CbiResult runCbi(ProgramPtr prog, const Workload &failing,
                 const Workload &succeeding,
                 const CbiOptions &opts = {});

} // namespace stm

#endif // STM_BASELINE_CBI_HH
