#include "baseline/cci.hh"

#include <algorithm>
#include <map>

#include "exec/run_pool.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{

std::size_t
CciResult::positionOf(std::uint32_t instr_index, bool remote) const
{
    Addr pc = layout::codeAddr(instr_index);
    const CciPredicateScore *found = nullptr;
    for (const auto &r : ranking) {
        if (r.pc == pc && r.remote == remote) {
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

CciResult
runCci(ProgramPtr prog, const Workload &failing,
       const Workload &succeeding, const CciOptions &opts)
{
    // Sampling configuration is a plan over the const program (see
    // baseline/cbi.cc).
    auto overlay = std::make_shared<Instrumentation>();
    transform::applyCci(*overlay, opts.meanPeriod);
    std::shared_ptr<const Instrumentation> plan = std::move(overlay);

    CciResult result;
    std::map<std::pair<Addr, bool>, LiblitTally> tallies;

    auto accumulate = [&](const RunResult &run, bool run_failed) {
        for (const auto &[pc, samples] : run.cciSiteSamples) {
            if (samples == 0)
                continue;
            for (bool remote : {false, true}) {
                LiblitTally &tally = tallies[{pc, remote}];
                if (run_failed)
                    ++tally.obsInFailing;
                else
                    ++tally.obsInSucceeding;
                auto it = run.cciCounts.find({pc, remote});
                bool observed_true =
                    it != run.cciCounts.end() && it->second > 0;
                if (observed_true) {
                    if (run_failed)
                        ++tally.trueInFailing;
                    else
                        ++tally.trueInSucceeding;
                }
            }
        }
    };

    // Fan the independent runs out across the pool; ordered
    // consumption keeps the used-run set and attempt counts
    // bit-identical to the serial loop (see exec/run_pool.hh).
    RunPool pool(opts.jobs);

    std::uint64_t attempt = 0;
    if (opts.failureRuns > 0) {
        pool.runOrdered(
            0, opts.maxAttempts,
            [&, prog](std::uint64_t i) {
                return Machine(prog, failing.forRun(i), plan).run();
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

    if (opts.successRuns > 0) {
        pool.runOrdered(
            0, opts.maxAttempts,
            [&, prog](std::uint64_t i) {
                return Machine(prog, succeeding.forRun(5000000 + i),
                               plan)
                    .run();
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
        CciPredicateScore entry;
        entry.pc = pred.first;
        entry.remote = pred.second;
        entry.tally = tally;
        entry.score = score;
        result.ranking.push_back(entry);
    }
    std::sort(result.ranking.begin(), result.ranking.end(),
              [](const CciPredicateScore &x,
                 const CciPredicateScore &y) {
                  if (x.score.importance != y.score.importance)
                      return x.score.importance > y.score.importance;
                  if (x.pc != y.pc)
                      return x.pc < y.pc;
                  return x.remote < y.remote;
              });
    result.completed = true;
    return result;
}

} // namespace stm
