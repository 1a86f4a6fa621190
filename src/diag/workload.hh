/**
 * @file
 * A workload: how to run a program many times with varied seeds, and
 * how to decide whether a given run counts as a failure.
 *
 * Sequential-bug workloads differ in program inputs (global overrides
 * and main arguments); concurrency-bug workloads differ in scheduler
 * seed so the racy interleaving sometimes manifests. Wrong-output
 * bugs complete normally and are labeled by an output check.
 */

#ifndef STM_DIAG_WORKLOAD_HH
#define STM_DIAG_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "isa/instruction.hh"
#include "vm/options.hh"
#include "vm/run_result.hh"

namespace stm
{

/** A reproducible family of runs. */
struct Workload
{
    /** Base machine configuration (inputs, geometry, policy). */
    MachineOptions base;

    /**
     * For wrong-output / corrupted-log symptoms the run completes
     * normally and no failure-logging call fires; the profile of
     * interest is the one collected at this checkpoint site (e.g. the
     * output statement the user judges to be wrong).
     */
    std::optional<LogSiteId> failureSiteHint;

    /**
     * Labels a finished run. Defaults to fail-stop detection; bugs
     * with wrong-output symptoms install an output check.
     */
    std::function<bool(const RunResult &)> isFailure =
        [](const RunResult &r) { return r.failStop(); };

    /** The i-th run's seed, derived from the base's. */
    std::uint64_t
    seedFor(std::uint64_t i) const
    {
        return base.sched.seed + 7919 * i;
    }

    /** Options for the i-th run: the base with a derived seed. */
    MachineOptions
    forRun(std::uint64_t i) const
    {
        MachineOptions opts = base;
        opts.sched.seed = seedFor(i);
        return opts;
    }
};

} // namespace stm

#endif // STM_DIAG_WORKLOAD_HH
