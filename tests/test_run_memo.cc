/**
 * @file
 * Tests for RunMemo (exec/run_memo.hh): on every LBRA/LCRA campaign
 * phase of every bug, a memo shared by a whole phase answers each
 * seed with the RunResult a fresh Machine returns, at one job and at
 * eight workers; CBI, CCI and PBI runs are executed and never stored;
 * and the memo's totals land in execStats().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "exec/run_memo.hh"
#include "exec/run_pool.hh"
#include "hw/msr.hh"
#include "program/cfg.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

/** One campaign phase: a plan, and the workload it runs from a seed base. */
struct Phase
{
    std::shared_ptr<const Instrumentation> plan;
    const Workload *workload;
    std::uint64_t seedBase;
};

/**
 * The three phases of an LBRA/LCRA campaign at its defaults (Reactive
 * scheme): pin search under the log plan; failure collection and
 * success collection under the log plan plus the pinned failure's
 * success site. A bug whose failure leaves no site keeps the log plan.
 */
std::vector<Phase>
campaignPhases(const BugSpec &bug)
{
    bool lbr = !bug.isConcurrent;
    Instrumentation plan;
    if (lbr) {
        transform::LbrLogPlan log;
        log.lbrSelectMask = msr::kPaperLbrSelect;
        transform::applyLbrLog(*bug.program, plan, log);
    } else {
        transform::LcrLogPlan log;
        log.lcrConfigMask = lcrConfSpaceConsuming().pack();
        transform::applyLcrLog(*bug.program, plan, log);
    }
    auto prePin = std::make_shared<const Instrumentation>(plan);

    const Workload &failing = bug.failing;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        RunResult run = Machine(bug.program, failing.forRun(i), prePin).run();
        if (!failing.isFailure(run) ||
            (!run.failure && !failing.failureSiteHint))
            continue;
        Cfg cfg(*bug.program);
        auto scheme = transform::SuccessSiteScheme::Reactive;
        if (run.failure && run.failure->site == kSegfaultSite) {
            transform::applySuccessSites(*bug.program, plan, cfg, lbr,
                                         scheme, kSegfaultSite,
                                         run.failure->instrIndex);
        } else {
            transform::applySuccessSites(
                *bug.program, plan, cfg, lbr, scheme,
                run.failure ? run.failure->site : *failing.failureSiteHint);
        }
        break;
    }
    auto postPin = std::make_shared<const Instrumentation>(plan);
    return {{prePin, &failing, 0},
            {postPin, &failing, 0},
            {postPin, &bug.succeeding, 1000000}};
}

/** The options every run of @p phase shares, as a campaign sets them. */
MachineOptions
phaseOptions(const Phase &phase)
{
    AutoDiagOptions campaign;
    MachineOptions opts = phase.workload->base;
    opts.lbrEntries = campaign.log.lbrEntries;
    opts.lcrEntries = campaign.log.lcrEntries;
    opts.dispatch = campaign.dispatch;
    return opts;
}

/** One MemoDifferential case: a bug and a phase (0..2). */
struct MemoCase
{
    std::string id;
    std::size_t phase;
};

/** Deterministic parameter text (gtest otherwise prints raw bytes). */
void
PrintTo(const MemoCase &c, std::ostream *os)
{
    *os << c.id << " phase " << c.phase;
}

std::vector<MemoCase>
memoCases()
{
    std::vector<MemoCase> cases;
    for (auto group : {corpus::allBugs(), corpus::kernelBugs(),
                       corpus::microBugs()}) {
        for (const BugSpec &bug : group) {
            for (std::size_t phase = 0; phase < 3; ++phase)
                cases.push_back({bug.id, phase});
        }
    }
    return cases;
}

class MemoDifferential : public ::testing::TestWithParam<MemoCase>
{
};

/**
 * 2,000 seeds of one phase, asked once each in attempt order, as a
 * campaign asks them: one memo serves the whole phase at one job, and
 * a second memo the same seeds through eight workers. Every answer is
 * checked against a fresh Machine, a chunk at a time so no more than a
 * chunk of results is held. A one-job miss is itself a fresh run (with
 * the seed recorder armed), so fresh runs are made for its hits and
 * for the first chunk; the eight-job answers must equal the one-job
 * ones. Both memos store the same paths. Then a small subset asked
 * twice more is all hits on the second repeat: every LBRA/LCRA run
 * reads its seed only by decisions, so by then each of its paths ran
 * twice and holds its result.
 */
TEST_P(MemoDifferential, MatchesAFreshMachine)
{
    constexpr std::uint64_t kSeeds = 2000;
    constexpr std::uint64_t kChunk = 50;
    constexpr std::uint64_t kSubset = 10;
    const MemoCase &c = GetParam();
    BugSpec bug = corpus::bugById(c.id);
    const Phase phase = campaignPhases(bug)[c.phase];
    const MachineOptions base = phaseOptions(phase);
    auto seedOf = [&](std::uint64_t i) {
        return phase.workload->seedFor(phase.seedBase + i);
    };
    auto fresh = [&](std::uint64_t i) {
        MachineOptions opts = base;
        opts.sched.seed = seedOf(i);
        return Machine(bug.program, opts, phase.plan).run();
    };
    RunPool eight(8);
    RunMemo memo1(bug.program, phase.plan, base);
    RunMemo memo8(bug.program, phase.plan, base);

    std::uint64_t mismatches = 0;
    auto expectEqual = [&](const RunResult &got, const RunResult &want,
                           const char *what, std::uint64_t i) {
        if (!(got == want) && mismatches++ == 0)
            ADD_FAILURE() << what << ": first mismatch at attempt " << i;
    };
    for (std::uint64_t first = 0; first < kSeeds; first += kChunk) {
        // The two memos are independent: the eight workers take the
        // chunk while this thread asks the one-job memo.
        std::vector<RunResult> got;
        std::thread eightJobs([&] {
            got = eight.runBatch(first, kChunk, [&](std::uint64_t i) {
                return memo8.run(seedOf(i));
            });
        });
        std::vector<RunResult> want;
        std::vector<std::uint64_t> check;
        for (std::uint64_t i = first; i < first + kChunk; ++i) {
            std::uint64_t hitsBefore = memo1.hits();
            want.push_back(memo1.run(seedOf(i)));
            if (memo1.hits() != hitsBefore || first == 0)
                check.push_back(i);
        }
        eightJobs.join();
        std::vector<RunResult> freshRuns = eight.runBatch(
            0, check.size(),
            [&](std::uint64_t k) { return fresh(check[k]); });
        for (std::size_t k = 0; k < check.size(); ++k) {
            expectEqual(want[check[k] - first], freshRuns[k], "jobs 1",
                        check[k]);
        }
        for (std::uint64_t k = 0; k < kChunk; ++k)
            expectEqual(got[k], want[k], "jobs 8", first + k);
    }
    EXPECT_GE(memo1.paths(), 1u);
    EXPECT_EQ(memo8.paths(), memo1.paths());

    for (int pass = 0; pass < 2; ++pass) {
        std::uint64_t hitsBefore = memo1.hits();
        for (std::uint64_t i = 0; i < kSubset; ++i)
            expectEqual(memo1.run(seedOf(i)), fresh(i), "repeat", i);
        if (pass == 1) {
            EXPECT_EQ(memo1.hits() - hitsBefore, kSubset);
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

std::string
memoCaseName(const ::testing::TestParamInfo<MemoCase> &c)
{
    static const char *const kPhaseNames[] = {"pre_pin", "post_pin",
                                              "success"};
    std::string name = c.param.id;
    for (char &ch : name) {
        if (ch == '-')
            ch = '_';
    }
    return name + "_" + kPhaseNames[c.param.phase];
}

INSTANTIATE_TEST_SUITE_P(AllBugs, MemoDifferential,
                         ::testing::ValuesIn(memoCases()), memoCaseName);

/**
 * CBI, CCI and PBI runs read their seed other than by decisions (the
 * CBI countdown, geometric draws, the counters' jitter): the memo
 * executes every one and stores none.
 */
TEST(RunMemo, NeverStoresCbiCciOrPbiRuns)
{
    BugSpec seq = corpus::bugById("sort");
    BugSpec conc = corpus::bugById("mozilla-js3");
    auto cbi = std::make_shared<Instrumentation>();
    transform::applyCbi(*seq.program, *cbi);
    auto cci = std::make_shared<Instrumentation>();
    transform::applyCci(*cci);
    auto pbi = std::make_shared<Instrumentation>();
    transform::applyPbi(*pbi, 0x05, 0x01, 50);
    struct Case
    {
        const char *name;
        const BugSpec *bug;
        std::shared_ptr<const Instrumentation> plan;
    };
    for (const Case &c : {Case{"cbi", &seq, cbi}, Case{"cci", &conc, cci},
                          Case{"pbi", &conc, pbi}}) {
        const Workload &failing = c.bug->failing;
        RunMemo memo(c.bug->program, c.plan, failing.base);
        for (std::uint64_t i = 0; i < 50; ++i) {
            EXPECT_TRUE(memo.run(failing.seedFor(i)) ==
                        Machine(c.bug->program, failing.forRun(i), c.plan)
                            .run())
                << c.name << " attempt " << i;
        }
        EXPECT_EQ(memo.paths(), 0u) << c.name;
        EXPECT_EQ(memo.hits(), 0u) << c.name;
    }
}

/** The memo folds its totals into execStats() when it goes away. */
TEST(RunMemo, CountsHitsAndPathsInExecStats)
{
    resetExecStats();
    BugSpec bug = corpus::bugById("sort");
    {
        RunMemo memo(bug.program, nullptr, bug.failing.base);
        // sort's runs draw nothing: one path, kept with its result
        // from the second run on.
        for (std::uint64_t i = 0; i < 5; ++i)
            memo.run(bug.failing.seedFor(i));
        EXPECT_EQ(memo.paths(), 1u);
        EXPECT_EQ(memo.hits(), 3u);
    }
    EXPECT_EQ(execStats().value("memo_paths"), 1u);
    EXPECT_EQ(execStats().value("memo_hits"), 3u);
}

} // namespace
} // namespace stm
