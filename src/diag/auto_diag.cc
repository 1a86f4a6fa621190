#include "diag/auto_diag.hh"

#include <optional>

#include "exec/run_memo.hh"
#include "exec/run_pool.hh"
#include "obs/trace.hh"
#include "program/cfg.hh"
#include "support/logging.hh"

namespace stm
{

namespace
{

/**
 * The profile to use from one run: prefer a snapshot at @p site with
 * the requested success-site flag, fall back to any snapshot at the
 * site (wrong-output checkpoints execute in both kinds of run with
 * the failure-site flag).
 */
const ProfileRecord *
pickProfile(const RunResult &run, ProfileKind kind, LogSiteId site,
            bool prefer_success_site)
{
    const ProfileRecord *preferred = nullptr;
    const ProfileRecord *fallback = nullptr;
    for (const auto &p : run.profiles) {
        if (p.kind != kind || p.site != site)
            continue;
        if (p.successSite == prefer_success_site)
            preferred = &p;
        else
            fallback = &p;
    }
    return preferred ? preferred : fallback;
}

std::set<EventKey>
eventsOf(const ProfileRecord &profile)
{
    if (profile.kind == ProfileKind::Lbr)
        return eventsOfLbr(profile.lbr);
    return eventsOfLcr(profile.lcr);
}

/**
 * Runs fan out across the pool, but every decision that the serial
 * loop made — which attempts count, which profiles feed the ranker,
 * when to give up — is replayed in strict attempt order on the
 * consuming thread, so the result is bit-identical to the serial
 * path for any worker count.
 *
 * The failure loop is split in two pool batches around the pinning
 * failure: the Reactive scheme adds the failure's success site to the
 * plan once the site is known, and a plan changes only between
 * batches, while no Machine is in flight. Each batch is one phase with
 * its own RunMemo (exec/run_memo.hh).
 */
AutoDiagResult
runAutoDiag(ProgramPtr prog, const Workload &failing,
            const Workload &succeeding, const AutoDiagOptions &opts,
            bool lbr)
{
    AutoDiagResult result;

    // 1. Base log-enhancement instrumentation plan. The Program is
    // const; pool workers share it without copies.
    Instrumentation plan;
    if (lbr) {
        transform::LbrLogPlan logPlan;
        logPlan.lbrSelectMask = opts.log.lbrSelect;
        logPlan.toggling = opts.log.toggling;
        transform::applyLbrLog(*prog, plan, logPlan);
    } else {
        transform::LcrLogPlan logPlan;
        logPlan.lcrConfigMask = opts.log.lcrConfig.pack();
        logPlan.toggling = opts.log.toggling;
        transform::applyLcrLog(*prog, plan, logPlan);
    }

    Cfg cfg(*prog);
    if (opts.scheme == transform::SuccessSiteScheme::Proactive) {
        transform::applySuccessSites(*prog, plan, cfg, lbr,
                                     transform::SuccessSiteScheme::
                                         Proactive);
    }

    ProfileKind kind = lbr ? ProfileKind::Lbr : ProfileKind::Lcr;
    StatisticalRanker ranker;
    RunPool pool(opts.jobs);

    // One phase: attempts first.. of @p workload under the plan as it
    // stands now. The phase fixes every option but the seed, so its
    // runs share a memo.
    auto runPhase = [&](const Workload &workload, std::uint64_t seed_base,
                        std::uint64_t first, std::uint64_t count,
                        const RunPool::Consumer &consume) {
        MachineOptions machineOpts = workload.base;
        machineOpts.lbrEntries = opts.log.lbrEntries;
        machineOpts.lcrEntries = opts.log.lcrEntries;
        machineOpts.dispatch = opts.dispatch;
        RunMemo memo(prog, std::make_shared<const Instrumentation>(plan),
                     machineOpts);
        pool.runOrdered(first, count, [&](std::uint64_t i) {
            return memo.run(workload.seedFor(seed_base + i));
        }, consume);
    };

    // 2. Observe failures; the first one pins the failure site.
    bool haveSite = false;
    std::uint32_t faultInstr = 0;
    std::uint64_t attempt = 0;
    std::uint64_t failingRunsSeen = 0;

    // Give up early if failures reproduce but never carry a profile
    // at a usable site (silent-corruption bugs).
    auto shouldGiveUp = [&] {
        return failingRunsSeen >=
                   std::uint64_t{5} * opts.failureProfiles + 20 &&
               result.failureRunsUsed == 0;
    };

    // 2a. Pin search: attempts run with the pre-pin instrumentation
    // until the first failure with a usable site stops the batch.
    std::optional<RunResult> pinRun;
    if (opts.failureProfiles > 0) {
        obs::TraceSpan pinSpan(obs::TraceCategory::Diag,
                               obs::TraceId::DiagPinSearch);
        runPhase(
            failing, 0, 0, opts.maxAttempts,
            [&](std::uint64_t i, RunResult &&run) {
                if (shouldGiveUp())
                    return false;
                attempt = i + 1;
                if (!failing.isFailure(run))
                    return true;
                ++failingRunsSeen;
                // Silent failures (no fail-stop, no checkpoint hint)
                // leave no profiling location at all — the
                // Apache5/Cherokee/JS2 class.
                if (!run.failure && !failing.failureSiteHint)
                    return true;
                pinRun = std::move(run);
                return false;
            });
    }

    if (pinRun) {
        const RunResult &run = *pinRun;
        LogSiteId site = kSegfaultSite;
        if (run.failure)
            site = run.failure->site;
        else if (failing.failureSiteHint)
            site = *failing.failureSiteHint;

        haveSite = true;
        result.site = site;
        if (run.failure)
            faultInstr = run.failure->instrIndex;
        // Reactive scheme: now that the failure location is known,
        // instrument its success site (a code patch, or dynamic
        // binary rewriting on the deployed binary). Only the O(sites)
        // plan changes; the pool drained before we got here, and the
        // next phase starts from the new plan.
        if (opts.scheme == transform::SuccessSiteScheme::Reactive) {
            obs::TraceSpan reinstr(obs::TraceCategory::Diag,
                                   obs::TraceId::DiagReinstrument,
                                   result.site);
            if (result.site == kSegfaultSite) {
                transform::applySuccessSites(
                    *prog, plan, cfg, lbr,
                    transform::SuccessSiteScheme::Reactive,
                    kSegfaultSite, faultInstr);
            } else {
                transform::applySuccessSites(
                    *prog, plan, cfg, lbr,
                    transform::SuccessSiteScheme::Reactive,
                    result.site);
            }
        }
        const ProfileRecord *profile =
            pickProfile(run, kind, site, false);
        if (profile) {
            ranker.addFailureProfile(eventsOf(*profile));
            ++result.failureRunsUsed;
        }
        pinRun.reset();
    }

    // 2b. Collect the remaining failure profiles under the (possibly
    // extended) plan.
    if (haveSite && result.failureRunsUsed < opts.failureProfiles &&
        attempt < opts.maxAttempts) {
        obs::TraceSpan collectSpan(obs::TraceCategory::Diag,
                                   obs::TraceId::DiagFailureCollect);
        runPhase(
            failing, 0, attempt, opts.maxAttempts - attempt,
            [&](std::uint64_t i, RunResult &&run) {
                if (result.failureRunsUsed >= opts.failureProfiles)
                    return false;
                if (shouldGiveUp())
                    return false;
                attempt = i + 1;
                if (!failing.isFailure(run))
                    return true;
                ++failingRunsSeen;
                if (!run.failure && !failing.failureSiteHint)
                    return true;
                LogSiteId site = kSegfaultSite;
                if (run.failure)
                    site = run.failure->site;
                else if (failing.failureSiteHint)
                    site = *failing.failureSiteHint;
                if (site != result.site)
                    return true; // a different failure; diagnosed
                                 // separately
                // Crashes are distinguished by faulting location: a
                // crash at a different instruction is a different
                // failure.
                if (site == kSegfaultSite && run.failure &&
                    run.failure->instrIndex != faultInstr) {
                    return true;
                }
                const ProfileRecord *profile =
                    pickProfile(run, kind, site, false);
                if (!profile)
                    return true;
                ranker.addFailureProfile(eventsOf(*profile));
                ++result.failureRunsUsed;
                return true;
            });
    }
    result.failureAttempts = attempt;
    if (!haveSite || result.failureRunsUsed == 0)
        return result;

    // 3. Collect success-run profiles at the same site.
    std::uint64_t successAttempt = 0;
    if (opts.successProfiles > 0) {
        obs::TraceSpan collectSpan(obs::TraceCategory::Diag,
                                   obs::TraceId::DiagSuccessCollect);
        runPhase(
            succeeding, 1000000, 0, opts.maxAttempts,
            [&](std::uint64_t i, RunResult &&run) {
                if (result.successRunsUsed >= opts.successProfiles)
                    return false;
                successAttempt = i + 1;
                if (succeeding.isFailure(run))
                    return true;
                const ProfileRecord *profile =
                    pickProfile(run, kind, result.site, true);
                if (!profile)
                    return true;
                ranker.addSuccessProfile(eventsOf(*profile));
                ++result.successRunsUsed;
                return true;
            });
    }
    result.successAttempts = successAttempt;
    if (result.successRunsUsed == 0)
        return result;

    // 4. Rank.
    {
        obs::TraceSpan rankSpan(obs::TraceCategory::Diag,
                                obs::TraceId::DiagRank,
                                result.failureRunsUsed +
                                    result.successRunsUsed);
        result.ranking = ranker.rank(opts.absencePredicates);
    }
    result.diagnosed = true;
    return result;
}

} // namespace

AutoDiagResult
runLbra(ProgramPtr prog, const Workload &failing,
        const Workload &succeeding, const AutoDiagOptions &opts)
{
    return runAutoDiag(prog, failing, succeeding, opts, true);
}

AutoDiagResult
runLcra(ProgramPtr prog, const Workload &failing,
        const Workload &succeeding, const AutoDiagOptions &opts)
{
    return runAutoDiag(prog, failing, succeeding, opts, false);
}

} // namespace stm
