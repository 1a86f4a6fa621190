#include "baseline/cbi.hh"

#include <algorithm>
#include <map>

#include "exec/run_pool.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{

namespace
{

/** Attempt index of the first successful-phase run. */
constexpr std::uint64_t kSuccessSeedBase = 5000000;

/** Competition rank: ties share the best position. */
template <typename Entry, typename Match>
std::size_t
competitionRank(const std::vector<Entry> &ranking, Match matches)
{
    const Entry *found = nullptr;
    for (const auto &r : ranking) {
        if (matches(r)) {
            found = &r;
            break;
        }
    }
    if (!found)
        return 0;
    std::size_t better = 0;
    for (const auto &r : ranking) {
        if (r.score.importance > found->score.importance)
            ++better;
    }
    return better + 1;
}

} // namespace

std::size_t
CbiResult::positionOf(SourceBranchId branch, bool outcome) const
{
    return competitionRank(ranking, [&](const CbiPredicateScore &r) {
        return r.branch == branch && r.outcome == outcome;
    });
}

std::size_t
CbiResult::positionOfBranch(SourceBranchId branch) const
{
    return competitionRank(ranking, [&](const CbiPredicateScore &r) {
        return r.branch == branch;
    });
}

CbiResult
runCbi(ProgramPtr prog, const Workload &failing,
       const Workload &succeeding, const CbiOptions &opts)
{
    // The sampling instrumentation is a plan over the const program;
    // every run of the campaign reads it.
    auto overlay = std::make_shared<Instrumentation>();
    transform::applyCbi(*prog, *overlay, opts.meanPeriod);
    std::shared_ptr<const Instrumentation> plan = std::move(overlay);

    CbiResult result;
    std::map<CbiPredicate, LiblitTally> tallies;

    auto accumulate = [&](const RunResult &run, bool run_failed) {
        for (const auto &[branch, samples] : run.cbiSiteSamples) {
            if (samples == 0)
                continue;
            for (bool outcome : {false, true}) {
                LiblitTally &tally =
                    tallies[CbiPredicate{branch, outcome}];
                if (run_failed)
                    ++tally.obsInFailing;
                else
                    ++tally.obsInSucceeding;
                auto it =
                    run.cbiCounts.find(CbiPredicate{branch, outcome});
                bool observed_true =
                    it != run.cbiCounts.end() && it->second > 0;
                if (observed_true) {
                    if (run_failed)
                        ++tally.trueInFailing;
                    else
                        ++tally.trueInSucceeding;
                }
            }
        }
    };

    // A phase whose first attempt read its seed only through the CBI
    // countdown takes the same path under every seed: trace it once
    // and replay just the sampling per attempt (DESIGN.md §5). Any
    // other phase executes every attempt: CBI runs read the countdown,
    // so RunMemo could store none of them.
    auto tracePhase = [&](const MachineOptions &firstAttempt)
        -> std::shared_ptr<const CbiTrace> {
        Machine machine(prog, firstAttempt, plan);
        machine.recordCbiVisits();
        RunResult run = machine.run();
        if (!machine.seedInvariant())
            return nullptr;
        return std::make_shared<const CbiTrace>(
            machine.takeCbiTrace(std::move(run)));
    };
    auto attemptRun = [&](const CbiTrace *trace, const Workload &workload,
                          std::uint64_t i) {
        MachineOptions runOpts = workload.forRun(i);
        if (trace)
            return replayCbi(*trace, runOpts.sched.seed);
        return Machine(prog, runOpts, plan).run();
    };

    // The 1000+1000-run gathers are embarrassingly parallel: the
    // program is fully instrumented before fan-out, each run is
    // seeded by its attempt index, and results are consumed in
    // attempt order, so the set of used runs (and hence the tallies
    // and attempt counts) is bit-identical to the serial loop.
    // Replaying workers share one read-only trace.
    RunPool pool(opts.jobs);

    // Gather failing runs.
    std::uint64_t attempt = 0;
    if (opts.failureRuns > 0) {
        std::shared_ptr<const CbiTrace> trace = tracePhase(failing.forRun(0));
        pool.runOrdered(
            0, opts.maxAttempts,
            [&](std::uint64_t i) {
                return attemptRun(trace.get(), failing, i);
            },
            [&](std::uint64_t i, RunResult &&run) {
                if (result.failureRunsUsed >= opts.failureRuns)
                    return false;
                attempt = i + 1;
                if (!failing.isFailure(run))
                    return true;
                accumulate(run, true);
                ++result.failureRunsUsed;
                return true;
            });
    }
    result.failureAttempts = attempt;

    // Gather successful runs.
    if (opts.successRuns > 0) {
        std::shared_ptr<const CbiTrace> trace =
            tracePhase(succeeding.forRun(kSuccessSeedBase));
        pool.runOrdered(
            0, opts.maxAttempts,
            [&](std::uint64_t i) {
                return attemptRun(trace.get(), succeeding,
                                  kSuccessSeedBase + i);
            },
            [&](std::uint64_t, RunResult &&run) {
                if (result.successRunsUsed >= opts.successRuns)
                    return false;
                if (succeeding.isFailure(run))
                    return true;
                accumulate(run, false);
                ++result.successRunsUsed;
                return true;
            });
    }

    if (result.failureRunsUsed == 0 || result.successRunsUsed == 0)
        return result;

    for (const auto &[pred, tally] : tallies) {
        LiblitScore score = liblitScore(tally, result.failureRunsUsed);
        if (score.importance <= 0.0)
            continue;
        CbiPredicateScore entry;
        entry.branch = pred.first;
        entry.outcome = pred.second;
        entry.tally = tally;
        entry.score = score;
        result.ranking.push_back(entry);
    }
    std::sort(result.ranking.begin(), result.ranking.end(),
              [](const CbiPredicateScore &x,
                 const CbiPredicateScore &y) {
                  if (x.score.importance != y.score.importance)
                      return x.score.importance > y.score.importance;
                  if (x.branch != y.branch)
                      return x.branch < y.branch;
                  return x.outcome < y.outcome;
              });
    result.completed = true;
    return result;
}

} // namespace stm
