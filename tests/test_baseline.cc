/**
 * @file
 * Unit tests for the baselines: the Liblit statistical-debugging
 * scores, CBI sampling behavior and end-to-end diagnosis, CBI's
 * trace-once/replay-sampling path against plain execution, and the
 * PBI/CCI concurrency baselines.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "baseline/cbi.hh"
#include "baseline/cci.hh"
#include "baseline/liblit.hh"
#include "baseline/pbi.hh"
#include "corpus/registry.hh"
#include "program/builder.hh"
#include "program/transform.hh"
#include "support/random.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

// ---- Liblit scores ---------------------------------------------------------

TEST(Liblit, PerfectPredictorHasHighImportance)
{
    LiblitTally tally;
    tally.trueInFailing = 100;
    tally.trueInSucceeding = 0;
    tally.obsInFailing = 100;
    tally.obsInSucceeding = 100;
    LiblitScore score = liblitScore(tally, 100);
    EXPECT_DOUBLE_EQ(score.failure, 1.0);
    EXPECT_DOUBLE_EQ(score.context, 0.5);
    EXPECT_DOUBLE_EQ(score.increase, 0.5);
    EXPECT_GT(score.importance, 0.6);
}

TEST(Liblit, NonDiscriminatingPredicateIsPruned)
{
    // True in half the failing and half the succeeding runs where
    // observed: Failure == Context == 0.5 => Increase 0 => pruned.
    LiblitTally tally;
    tally.trueInFailing = 50;
    tally.trueInSucceeding = 50;
    tally.obsInFailing = 100;
    tally.obsInSucceeding = 100;
    LiblitScore score = liblitScore(tally, 100);
    EXPECT_DOUBLE_EQ(score.increase, 0.0);
    EXPECT_DOUBLE_EQ(score.importance, 0.0);
}

TEST(Liblit, FailingOnlyObservationIsContextPruned)
{
    // A predicate whose site only executes in failing runs:
    // Context = 1 = Failure, so CBI prunes it (the sort case in
    // EXPERIMENTS.md).
    LiblitTally tally;
    tally.trueInFailing = 20;
    tally.obsInFailing = 20;
    LiblitScore score = liblitScore(tally, 100);
    EXPECT_DOUBLE_EQ(score.importance, 0.0);
}

TEST(Liblit, UnobservedPredicateScoresZero)
{
    LiblitTally tally;
    LiblitScore score = liblitScore(tally, 100);
    EXPECT_DOUBLE_EQ(score.importance, 0.0);
}

TEST(Liblit, MoreFailingObservationsRankHigher)
{
    LiblitTally few;
    few.trueInFailing = 2;
    few.obsInFailing = 2;
    few.obsInSucceeding = 100;
    LiblitTally many = few;
    many.trueInFailing = 50;
    many.obsInFailing = 50;
    LiblitScore a = liblitScore(few, 100);
    LiblitScore b = liblitScore(many, 100);
    EXPECT_GT(b.importance, a.importance);
}

// ---- CBI ---------------------------------------------------------------------

TEST(Cbi, DiagnosesCpWithManyRuns)
{
    BugSpec bug = corpus::bugById("cp");
    CbiOptions opts;
    opts.failureRuns = 800;
    opts.successRuns = 800;
    CbiResult result =
        runCbi(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.completed);
    std::size_t rank =
        result.positionOfBranch(bug.truth.rootCauseBranch);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 3u);
}

TEST(Cbi, FailsWithFewRuns)
{
    // The diagnosis-latency story: at 1/100 sampling, a handful of
    // runs almost never samples the root-cause site.
    BugSpec bug = corpus::bugById("cp");
    CbiOptions opts;
    opts.failureRuns = 5;
    opts.successRuns = 5;
    CbiResult result =
        runCbi(bug.program, bug.failing, bug.succeeding, opts);
    std::size_t rank =
        result.completed
            ? result.positionOfBranch(bug.truth.rootCauseBranch)
            : 0;
    EXPECT_EQ(rank, 0u);
}

TEST(Cbi, SamplingRateControlsObservationCount)
{
    BugSpec bug = corpus::bugById("rm");
    CbiOptions sparse;
    sparse.meanPeriod = 10000.0;
    sparse.failureRuns = 20;
    sparse.successRuns = 20;
    CbiResult sparseResult =
        runCbi(bug.program, bug.failing, bug.succeeding, sparse);

    CbiOptions dense;
    dense.meanPeriod = 2.0;
    dense.failureRuns = 20;
    dense.successRuns = 20;
    CbiResult denseResult =
        runCbi(bug.program, bug.failing, bug.succeeding, dense);
    // Denser sampling observes far more predicates.
    EXPECT_GT(denseResult.ranking.size(),
              sparseResult.ranking.size());
}

TEST(Cbi, RankingSortedByImportance)
{
    BugSpec bug = corpus::bugById("rm");
    CbiOptions opts;
    opts.failureRuns = 100;
    opts.successRuns = 100;
    CbiResult result =
        runCbi(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.completed);
    for (std::size_t i = 1; i < result.ranking.size(); ++i) {
        EXPECT_GE(result.ranking[i - 1].score.importance,
                  result.ranking[i].score.importance);
    }
}

// ---- CBI replay vs execution ------------------------------------------------

/** The plan runCbi installs: CBI hooks only, on a fresh plan. */
std::shared_ptr<const Instrumentation>
cbiPlan(const Program &prog, double mean_period)
{
    auto plan = std::make_shared<Instrumentation>();
    transform::applyCbi(prog, *plan, mean_period);
    return plan;
}

/** Trace one run under @p plan; null when it is not seed-invariant. */
std::unique_ptr<CbiTrace>
traceRun(const ProgramPtr &prog,
         const std::shared_ptr<const Instrumentation> &plan,
         const MachineOptions &opts)
{
    Machine machine(prog, opts, plan);
    machine.recordCbiVisits();
    RunResult run = machine.run();
    if (!machine.seedInvariant())
        return nullptr;
    return std::make_unique<CbiTrace>(
        machine.takeCbiTrace(std::move(run)));
}

RunResult
executeRun(const ProgramPtr &prog,
           const std::shared_ptr<const Instrumentation> &plan,
           const MachineOptions &opts)
{
    return Machine(prog, opts, plan).run();
}

TEST(CbiReplay, SkipToSampleMatchesVisitByVisit)
{
    // The replay's sample-to-sample jump and the Machine's per-visit
    // decrement are two spellings of one countdown rule.
    for (double mean : {1.0, 1.5, 3.0, 100.0}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            Pcg32 perVisit(seed, SeedStream::kStream);
            Pcg32 jumping(seed, SeedStream::kStream);
            CbiCountdown a;
            CbiCountdown b;
            for (int sample = 0; sample < 50; ++sample) {
                std::uint64_t skipped = 0;
                while (!a.visit(perVisit, mean))
                    ++skipped;
                ASSERT_EQ(b.skipToSample(jumping, mean), skipped)
                    << "mean " << mean << " seed " << seed;
            }
        }
    }
}

TEST(CbiReplay, FirstVisitDrawsAndSamplesAreCharged)
{
    // An independent account of the sampling rule on a fixed visit
    // sequence: the countdown is drawn at the first visit, each visit
    // costs 1 instruction and each sample 15 more.
    CbiTrace trace;
    trace.meanPeriod = 3.0;
    for (std::uint32_t v = 0; v < 400; ++v)
        trace.visits.push_back(CbiVisit{v % 7, std::uint8_t(v % 2)});
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Pcg32 rng(seed, SeedStream::kStream);
        std::map<CbiPredicate, std::uint32_t> counts;
        std::uint64_t samples = 0;
        std::uint64_t at = rng.nextGeometric(trace.meanPeriod) - 1;
        while (at < trace.visits.size()) {
            const CbiVisit &v = trace.visits[at];
            ++counts[CbiPredicate{v.site, v.reading != 0}];
            ++samples;
            at += rng.nextGeometric(trace.meanPeriod);
        }
        RunResult run = replayCbi(trace, seed);
        EXPECT_EQ(run.cbiCounts, counts) << "seed " << seed;
        EXPECT_EQ(run.stats.instrumentationInstructions,
                  trace.visits.size() + 15 * samples)
            << "seed " << seed;
    }
}

TEST(CbiReplay, MatchesExecutionOnEveryCorpusBug)
{
    // Every corpus bug, both phases, five sampling rates: wherever
    // the traced first attempt is seed-invariant, the replay of 20
    // attempts equals executing them (the attempt seeds runCbi uses).
    // Mean 2 samples most sites of a run; at mean 10000 a countdown
    // table's buckets span several countdowns, so many draws take the
    // formula.
    std::vector<BugSpec> bugs = corpus::allBugs();
    for (BugSpec &bug : corpus::kernelBugs())
        bugs.push_back(std::move(bug));
    std::size_t replayed = 0;
    std::size_t fellBack = 0;
    for (const BugSpec &bug : bugs) {
        for (double mean : {1.0, 2.0, 3.0, 100.0, 10000.0}) {
            auto plan = cbiPlan(*bug.program, mean);
            for (bool failingPhase : {true, false}) {
                const Workload &w =
                    failingPhase ? bug.failing : bug.succeeding;
                const std::uint64_t first = failingPhase ? 0 : 5000000;
                SCOPED_TRACE(bug.id + (failingPhase ? " failing" :
                                                      " succeeding") +
                             " mean " + std::to_string(mean));
                auto trace = traceRun(bug.program, plan, w.forRun(first));
                if (!trace) {
                    ++fellBack;
                    continue;
                }
                ++replayed;
                for (std::uint64_t i = first; i < first + 20; ++i) {
                    MachineOptions opts = w.forRun(i);
                    ASSERT_EQ(replayCbi(*trace, opts.sched.seed),
                              executeRun(bug.program, plan, opts))
                        << "attempt " << i;
                }
            }
        }
    }
    // Every sequential bug is seed-invariant in both phases; the
    // concurrency bugs (preemption) fall back.
    EXPECT_GE(replayed, corpus::sequentialBugs().size() * 2 * 5);
    EXPECT_GE(fellBack, corpus::concurrencyBugs().size() * 2 * 5);
}

/**
 * runCbi's tallies and run counts, recomputed by executing every
 * attempt on a plain Machine.
 */
void
expectCampaignMatchesExecution(const ProgramPtr &prog,
                               const Workload &failing,
                               const Workload &succeeding,
                               const CbiOptions &opts)
{
    CbiResult result = runCbi(prog, failing, succeeding, opts);
    auto plan = cbiPlan(*prog, opts.meanPeriod);
    std::map<CbiPredicate, LiblitTally> tallies;
    auto gather = [&](const Workload &w, std::uint64_t first,
                      std::uint32_t want, bool wantFailure,
                      std::uint64_t *attempts) {
        std::uint64_t used = 0;
        std::uint64_t i = 0;
        for (; used < want && i < opts.maxAttempts; ++i) {
            RunResult run = executeRun(prog, plan, w.forRun(first + i));
            if (w.isFailure(run) != wantFailure)
                continue;
            ++used;
            for (const auto &[branch, samples] : run.cbiSiteSamples) {
                for (bool outcome : {false, true}) {
                    LiblitTally &t = tallies[{branch, outcome}];
                    bool isTrue = run.cbiCounts.count({branch, outcome});
                    (wantFailure ? t.obsInFailing : t.obsInSucceeding)++;
                    if (isTrue) {
                        (wantFailure ? t.trueInFailing
                                     : t.trueInSucceeding)++;
                    }
                }
            }
        }
        if (attempts)
            *attempts = i;
        return used;
    };
    std::uint64_t failureAttempts = 0;
    std::uint64_t failuresUsed =
        gather(failing, 0, opts.failureRuns, true, &failureAttempts);
    std::uint64_t successesUsed =
        gather(succeeding, 5000000, opts.successRuns, false, nullptr);
    EXPECT_EQ(result.failureRunsUsed, failuresUsed);
    EXPECT_EQ(result.successRunsUsed, successesUsed);
    EXPECT_EQ(result.failureAttempts, failureAttempts);
    ASSERT_TRUE(result.completed);
    std::size_t scored = 0;
    for (const auto &[pred, tally] : tallies)
        scored += liblitScore(tally, failuresUsed).importance > 0.0;
    EXPECT_EQ(result.ranking.size(), scored);
    for (const CbiPredicateScore &entry : result.ranking) {
        const LiblitTally &t = tallies[{entry.branch, entry.outcome}];
        EXPECT_EQ(entry.tally.trueInFailing, t.trueInFailing);
        EXPECT_EQ(entry.tally.trueInSucceeding, t.trueInSucceeding);
        EXPECT_EQ(entry.tally.obsInFailing, t.obsInFailing);
        EXPECT_EQ(entry.tally.obsInSucceeding, t.obsInSucceeding);
    }
}

/** main spawns a worker; both threads cross CBI sites; no preemption. */
ProgramPtr
spawningProgram()
{
    ProgramBuilder b("spawner");
    b.global("flag", 1, {0}, true);
    b.func("main");
    b.movi(r1, 3);
    b.spawn(r9, "worker", r1);
    b.join(r9);
    b.loadg(r2, "flag");
    b.movi(r3, 3);
    b.beginIf(Cond::Eq, r2, r3, "flag == 3");
    b.logError("worker stored 3");
    b.endIf();
    b.out(r2);
    b.halt();
    b.func("worker");
    b.movi(r10, 0);
    b.beginWhile(Cond::Lt, r10, r1, "i < n");
    b.addi(r10, r10, 1);
    b.endWhile();
    b.storeg("flag", 0, r10, r4);
    b.ret();
    return b.build();
}

TEST(CbiReplay, EveryOtherSeedConsumerFallsBack)
{
    // Preemption, interrupts, the CCI countdown, PBI counter jitter
    // and a second thread each make a run report not seed-invariant.
    BugSpec js3 = corpus::bugById("mozilla-js3");
    EXPECT_EQ(traceRun(js3.program, cbiPlan(*js3.program, 100.0),
                       js3.failing.forRun(0)),
              nullptr);
    BugSpec kirq = corpus::bugById("kirq-race");
    ASSERT_GT(kirq.failing.base.irq.prob, 0.0);
    EXPECT_EQ(traceRun(kirq.program, cbiPlan(*kirq.program, 100.0),
                       kirq.failing.forRun(0)),
              nullptr);

    BugSpec cp = corpus::bugById("cp");
    EXPECT_NE(traceRun(cp.program, cbiPlan(*cp.program, 3.0),
                       cp.failing.forRun(0)),
              nullptr);
    auto cci = std::make_shared<Instrumentation>();
    transform::applyCbi(*cp.program, *cci, 3.0);
    transform::applyCci(*cci, 100.0);
    EXPECT_EQ(traceRun(cp.program, cci, cp.failing.forRun(0)), nullptr);
    auto pbi = std::make_shared<Instrumentation>();
    transform::applyCbi(*cp.program, *pbi, 3.0);
    transform::applyPbi(*pbi, 0x05, 0x01, 50);
    EXPECT_EQ(traceRun(cp.program, pbi, cp.failing.forRun(0)), nullptr);

    ProgramPtr spawner = spawningProgram();
    EXPECT_EQ(traceRun(spawner, cbiPlan(*spawner, 3.0), Workload{}.forRun(0)),
              nullptr);
}

TEST(CbiReplay, CampaignsEqualTheExecutionPath)
{
    // Replayed (cp) and fallen-back (preemption, interrupts, threads)
    // campaigns alike report what executing every attempt reports.
    // Four workers replay concurrently from one shared trace.
    CbiOptions opts;
    opts.jobs = 4;
    opts.meanPeriod = 3.0;
    opts.failureRuns = 12;
    opts.successRuns = 12;
    for (const char *id : {"cp", "mozilla-js3", "kirq-race"}) {
        SCOPED_TRACE(id);
        BugSpec bug = corpus::bugById(id);
        expectCampaignMatchesExecution(bug.program, bug.failing,
                                       bug.succeeding, opts);
    }
    // The spawner logs an error in every run: a failing phase whose
    // succeeding twin gets a flag that never matches.
    ProgramPtr spawner = spawningProgram();
    Workload failing;
    Workload succeeding;
    succeeding.isFailure = [](const RunResult &) { return false; };
    expectCampaignMatchesExecution(spawner, failing, succeeding, opts);
}

// ---- PBI / CCI -------------------------------------------------------------

TEST(Pbi, SamplesTheFpeWithEnoughRuns)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    PbiOptions opts;
    opts.period = 3;
    opts.failureRuns = 300;
    opts.successRuns = 300;
    PbiResult result =
        runPbi(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.completed);
    std::size_t rank = result.positionOf(
        bug.truth.fpeInstr, bug.truth.fpeState, bug.truth.fpeStore);
    // PBI finds the FPE with enough runs, though error-path noise
    // events (sampled more often than the once-per-run FPE) can
    // outrank it — unlike LCRA's deterministic rank 1.
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 10u);
}

TEST(Pbi, HardwareCountingIsNearlyFree)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    auto plan = std::make_shared<Instrumentation>();
    transform::applyPbi(*plan, 0x05, 0x01, 50);
    Machine machine(bug.program, bug.succeeding.forRun(0), plan);
    RunResult run = machine.run();
    // Counting itself charges nothing; only rare overflow interrupts.
    EXPECT_LT(run.stats.steadyOverhead(), 0.05);
}

TEST(Cci, SoftwareSamplingIsExpensive)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    auto plan = std::make_shared<Instrumentation>();
    transform::applyCci(*plan, 100.0);
    Machine machine(bug.program, bug.succeeding.forRun(0), plan);
    RunResult run = machine.run();
    // Per-access fast-path instrumentation: an order of magnitude
    // above anything LBR/LCR-based (CCI's published 10x worst case).
    EXPECT_GT(run.stats.steadyOverhead(), 0.10);
}

TEST(Cci, CampaignCompletesAndRanks)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    CciOptions opts;
    opts.meanPeriod = 5.0; // dense sampling to keep the test fast
    opts.failureRuns = 100;
    opts.successRuns = 100;
    CciResult result =
        runCci(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.completed);
    EXPECT_FALSE(result.ranking.empty());
    std::size_t rank = result.positionOf(bug.truth.fpeInstr, true);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 5u);
}

} // namespace
} // namespace stm
