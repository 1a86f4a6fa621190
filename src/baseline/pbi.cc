#include "baseline/pbi.hh"

#include <algorithm>
#include <map>

#include "exec/run_pool.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{

std::size_t
PbiResult::positionOf(std::uint32_t instr_index, MesiState state,
                      bool store) const
{
    Addr pc = layout::codeAddr(instr_index);
    const PbiPredicateScore *found = nullptr;
    for (const auto &r : ranking) {
        if (r.pc == pc && r.state == state && r.store == store) {
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

PbiResult
runPbi(ProgramPtr prog, const Workload &failing,
       const Workload &succeeding, const PbiOptions &opts)
{
    // Counter configuration is a plan over the const program (see
    // baseline/cbi.cc).
    auto overlay = std::make_shared<Instrumentation>();
    transform::applyPbi(*overlay, opts.loadMask, opts.storeMask,
                        opts.period);
    std::shared_ptr<const Instrumentation> plan = std::move(overlay);

    PbiResult result;
    // Key: (pc, (state << 1) | store) as produced by the VM.
    std::map<std::pair<Addr, std::uint8_t>, LiblitTally> tallies;

    auto accumulate = [&](const RunResult &run, bool run_failed) {
        // The counters observe every run, so every known predicate is
        // "observed" in every run; update the observation tallies
        // lazily at the end instead. Here: record which predicates
        // sampled true.
        for (const auto &[key, samples] : run.pbiSamples) {
            if (samples == 0)
                continue;
            LiblitTally &tally = tallies[key];
            if (run_failed)
                ++tally.trueInFailing;
            else
                ++tally.trueInSucceeding;
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

    for (auto &[key, tally] : tallies) {
        // Hardware counters are armed in every run.
        tally.obsInFailing = result.failureRunsUsed;
        tally.obsInSucceeding = result.successRunsUsed;
        LiblitScore score = liblitScore(tally, result.failureRunsUsed);
        if (score.importance <= 0.0)
            continue;
        PbiPredicateScore entry;
        entry.pc = key.first;
        entry.state = static_cast<MesiState>(key.second >> 1);
        entry.store = (key.second & 1) != 0;
        entry.tally = tally;
        entry.score = score;
        result.ranking.push_back(entry);
    }
    std::sort(result.ranking.begin(), result.ranking.end(),
              [](const PbiPredicateScore &x,
                 const PbiPredicateScore &y) {
                  if (x.score.importance != y.score.importance)
                      return x.score.importance > y.score.importance;
                  if (x.pc != y.pc)
                      return x.pc < y.pc;
                  return x.store < y.store;
              });
    result.completed = true;
    return result;
}

} // namespace stm
