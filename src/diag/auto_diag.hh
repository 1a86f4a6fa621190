/**
 * @file
 * LBRA and LCRA: automatic failure diagnosis from hardware short-term
 * memory (Section 5.2).
 *
 * The pipeline: instrument the program with LBRLOG/LCRLOG, observe a
 * failure to learn the failure site, attach success-logging sites for
 * that site (reactively, or proactively before release), collect a
 * handful of failure-run and success-run profiles — the paper uses
 * just 10 + 10, which is the source of its diagnosis-latency
 * advantage over sampling approaches — and rank events with the
 * statistical model.
 */

#ifndef STM_DIAG_AUTO_DIAG_HH
#define STM_DIAG_AUTO_DIAG_HH

#include <cstdint>
#include <vector>

#include "diag/log_enhance.hh"
#include "diag/ranker.hh"
#include "diag/workload.hh"
#include "program/transform.hh"

namespace stm
{

/** Configuration of one LBRA/LCRA diagnosis. */
struct AutoDiagOptions
{
    /** Success-site collection scheme (Section 5.2). */
    transform::SuccessSiteScheme scheme =
        transform::SuccessSiteScheme::Reactive;
    /** Failure-run profiles to gather (the paper uses 10). */
    std::uint32_t failureProfiles = 10;
    /** Success-run profiles to gather (the paper uses 10). */
    std::uint32_t successProfiles = 10;
    /** Underlying LBRLOG/LCRLOG configuration. */
    LogEnhanceOptions log;
    /**
     * Also score absence predicates ("the profile does NOT contain
     * e"); needed for read-too-early order violations under the
     * space-saving LCR configuration (Section 4.2.2).
     */
    bool absencePredicates = false;
    /** Budget of runs before giving up. */
    std::uint64_t maxAttempts = 50000;
    /**
     * Worker threads for run execution (0 = STM_JOBS environment
     * variable, else hardware concurrency). Any value produces
     * rankings and attempt counts bit-identical to jobs=1; see
     * exec/run_pool.hh for the determinism contract.
     */
    unsigned jobs = 0;
    /**
     * Interpreter dispatch mechanism for every run of the campaign.
     * Result-invariant (vm/options.hh): any mode produces the same
     * ranking, so this is a speed knob only.
     */
    DispatchMode dispatch = DispatchMode::Auto;
};

/** Result of one automatic diagnosis. */
struct AutoDiagResult
{
    bool diagnosed = false; //!< enough profiles were collected
    LogSiteId site = kSegfaultSite;
    std::vector<RankedEvent> ranking;

    /** Failing runs whose profiles were used. */
    std::uint64_t failureRunsUsed = 0;
    /**
     * Total failing-workload runs executed — the diagnosis latency in
     * units of "times the failure had to occur / be attempted".
     */
    std::uint64_t failureAttempts = 0;
    std::uint64_t successRunsUsed = 0;
    std::uint64_t successAttempts = 0;

    /** 1-based rank of @p event; 0 if unranked. */
    std::size_t
    positionOf(const EventKey &event, bool absence = false) const
    {
        return StatisticalRanker::positionOf(ranking, event, absence);
    }
};

/** Run LBRA on a program with the given workloads. */
AutoDiagResult runLbra(ProgramPtr prog, const Workload &failing,
                       const Workload &succeeding,
                       const AutoDiagOptions &opts = {});

/** Run LCRA (uses Conf2 unless opts.log.lcrConfig says otherwise). */
AutoDiagResult runLcra(ProgramPtr prog, const Workload &failing,
                       const Workload &succeeding,
                       const AutoDiagOptions &opts = {});

} // namespace stm

#endif // STM_DIAG_AUTO_DIAG_HH
