/**
 * @file
 * The `diagnose` workload: the headline user path, one stm_diagnose
 * per operation, over all 39 corpus bugs (20 sequential, 11
 * concurrency, the 8-bug kernel pack) in a seeded shuffled order.
 *
 * An operation clears the process-wide decode cache (so it starts as
 * cold as a fresh stm_diagnose process), looks the bug up with
 * corpus::bugById, and runs LBRA or LCRA with stm_diagnose's default
 * options: 10+10 profiles, the reactive scheme, absence predicates
 * for LCRA and the process-default job count (kJobs, as
 * `stm_diagnose --jobs 1` would set it). Kernel bugs use the ring
 * settings bench_kernel_pack uses. The run cache and snapshot store
 * stay at their default of off.
 */

#include <map>
#include <stdexcept>

#include "common.hh"
#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "hw/msr.hh"
#include "vm/decode_cache.hh"

namespace perfbench
{

namespace
{

/**
 * Expected rank of each bug's ground-truth event (Table 6's LBRA and
 * Table 7's LCRA columns, plus the kernel pack). Apache 5, Cherokee,
 * Mozilla-JS2 and MySQL 1 stay undiagnosed, as in the paper.
 */
const std::map<std::string, std::string> kExpectedRank = {
    {"apache1", "1"},     {"apache2", "1*"},      {"apache3", "1"},
    {"cp", "1"},          {"cppcheck1", "1*"},    {"cppcheck2", "1"},
    {"cppcheck3", "1"},   {"lighttpd", "1"},      {"ln", "1*"},
    {"mv", "1"},          {"paste", "2"},         {"pbzip1", "1"},
    {"pbzip2", "1"},      {"rm", "1"},            {"sort", "1"},
    {"squid1", "1"},      {"squid2", "1"},        {"tac", "1*"},
    {"tar1", "1"},        {"tar2", "1"},          {"apache4", "1"},
    {"apache5", "-"},     {"cherokee", "-"},      {"fft", "1"},
    {"lu", "1"},          {"mozilla-js1", "1"},   {"mozilla-js2", "-"},
    {"mozilla-js3", "1"}, {"mysql1", "-"},        {"mysql2", "1"},
    {"pbzip3", "1"},      {"kirq-race", "1"},     {"kirq-noise", "1"},
    {"kirq-atomic", "1"}, {"kirq-storm", "1"},    {"kpanic", "1"},
    {"ksys-check", "1"},  {"ksys-uar", "1"},      {"ksysret-leak", "1"},
};

struct Case
{
    std::string id;
    bool concurrent = false;
    bool kernel = false;
    /** Kernel bugs: the root-cause branch runs in ring 0. */
    bool kernelRoot = false;
    std::string expected;
};

bool
rootIsKernel(const stm::BugSpec &bug)
{
    for (const auto &inst : bug.program->code)
        if (inst.srcBranch == bug.truth.rootCauseBranch)
            return inst.kernel;
    return false;
}

std::vector<Case>
buildCases()
{
    std::vector<Case> cases;
    auto addAll = [&](std::vector<stm::BugSpec> bugs, bool kernel) {
        for (const stm::BugSpec &bug : bugs) {
            auto it = kExpectedRank.find(bug.id);
            if (it == kExpectedRank.end())
                throw std::runtime_error("no expected rank for " +
                                         bug.id);
            Case c;
            c.id = bug.id;
            c.concurrent = bug.isConcurrent;
            c.kernel = kernel;
            c.kernelRoot = kernel && !bug.isConcurrent &&
                           rootIsKernel(bug);
            c.expected = it->second;
            cases.push_back(std::move(c));
        }
    };
    addAll(stm::corpus::sequentialBugs(), false);
    addAll(stm::corpus::concurrencyBugs(), false);
    addAll(stm::corpus::kernelBugs(), true);
    if (cases.size() != kExpectedRank.size())
        throw std::runtime_error("corpus and expected ranks disagree");
    return cases;
}

/** The ground-truth event's rank cell, as Tables 6 and 7 score it. */
std::string
rankOf(const stm::BugSpec &bug, const stm::AutoDiagResult &r)
{
    if (!r.diagnosed)
        return "-";
    const stm::GroundTruth &t = bug.truth;
    if (bug.isConcurrent) {
        if (t.fpeUnreachable)
            return "-";
        return rankCell(r.positionOf(stm::EventKey::coherence(
            stm::layout::codeAddr(t.fpeInstr), t.fpeState,
            t.fpeStore)));
    }
    std::size_t p = 0;
    if (t.rootCauseBranch != stm::kNoSourceBranch)
        p = r.positionOf(stm::EventKey::sourceBranch(
            t.rootCauseBranch, t.rootCauseOutcome));
    if (p == 0 && t.relatedBranch != stm::kNoSourceBranch) {
        p = r.positionOf(stm::EventKey::sourceBranch(
            t.relatedBranch, t.relatedOutcome));
        return rankCell(p, p != 0);
    }
    return rankCell(p);
}

stm::AutoDiagOptions
optionsFor(const Case &c)
{
    stm::AutoDiagOptions opts; // stm_diagnose's defaults
    opts.absencePredicates = c.concurrent;
    if (c.kernel) {
        if (c.concurrent)
            opts.log.lcrConfig.filterKernel = false;
        else
            opts.log.lbrSelect = c.kernelRoot
                                     ? stm::msr::kKernelLbrSelect
                                     : stm::msr::kPaperLbrSelect;
    }
    return opts;
}

} // namespace

void
runDiagnose(const Args &args, Result &result)
{
    std::vector<Case> cases;
    Setup setup([&] { cases = buildCases(); });

    closedLoop(args, result, setup, cases.size(),
               [&](std::size_t item, PassMetrics &metrics,
                   Accounting *acct) -> std::int64_t {
        const Case &c = cases[item];
        if (acct)
            acct->beginOp();
        Counters before = Counters::now();
        Clock::time_point t0 = Clock::now();
        stm::globalDecodeCache().clear();
        Clock::time_point t1 = Clock::now();
        stm::BugSpec bug = stm::corpus::bugById(c.id);
        Clock::time_point t2 = Clock::now();
        stm::AutoDiagOptions opts = optionsFor(c);
        stm::AutoDiagResult r =
            c.concurrent
                ? stm::runLcra(bug.program, bug.failing,
                               bug.succeeding, opts)
                : stm::runLbra(bug.program, bug.failing,
                               bug.succeeding, opts);
        Clock::time_point t3 = Clock::now();

        metrics.addCounters(Counters::now() - before, c.concurrent,
                            !c.concurrent);
        metrics.add("corpus.build_ms", msBetween(t1, t2));
        metrics.add("diag.attempts", static_cast<double>(
                                         r.failureAttempts +
                                         r.successAttempts));
        metrics.add("hw.profiles", static_cast<double>(
                                       r.failureRunsUsed +
                                       r.successRunsUsed));
        if (acct) {
            acct->call("vm", nanosBetween(t0, t1));
            acct->call("corpus", nanosBetween(t1, t2));
            acct->call("diag", nanosBetween(t2, t3),
                       acct->takeEvents());
            std::string why;
            if (!acct->endOp(nanosBetween(t0, t3), &why)) {
                result.fail(c.id + ": " + why);
                return -1;
            }
        }
        std::string got = rankOf(bug, r);
        if (got != c.expected) {
            result.fail(c.id + ": rank " + got + ", expected " +
                        c.expected);
            return -1;
        }
        return nanosBetween(t0, t3);
    });
}

} // namespace perfbench
