/**
 * @file
 * The `evaluate` workload: the paper's evaluation as the Table 6 and
 * Table 7 benches run it, on the 31 paper bugs. One operation is one
 * (bug, tool) campaign:
 *   - sequential bugs: LBRLOG with and without toggling, LBRA, and
 *     CBI 1000+1000 (C applications only);
 *   - concurrency bugs: LCRLOG under Conf1 and Conf2, and LCRA.
 * Every operation's table cell is checked against the expected one.
 * The corpus is built once in set-up, as the table benches do.
 */

#include <map>
#include <stdexcept>

#include "baseline/cbi.hh"
#include "common.hh"
#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/log_enhance.hh"

namespace perfbench
{

namespace
{

enum class Tool {
    LbrLogTog,
    LbrLogNoTog,
    Lbra,
    Cbi,
    LcrLogConf1,
    LcrLogConf2,
    Lcra,
};

const char *
toolName(Tool tool)
{
    switch (tool) {
      case Tool::LbrLogTog: return "lbrlog";
      case Tool::LbrLogNoTog: return "lbrlog-notog";
      case Tool::Lbra: return "lbra";
      case Tool::Cbi: return "cbi";
      case Tool::LcrLogConf1: return "lcrlog-conf1";
      case Tool::LcrLogConf2: return "lcrlog-conf2";
      case Tool::Lcra: return "lcra";
    }
    return "?";
}

/**
 * Every Table 6/7 cell as the table benches print it (measured
 * column): LBR/LCR position or rank, '*' for the root-cause-related
 * branch, '-' for not captured, "abs" for Conf1's absence
 * discriminator. CBI cannot instrument the C++ applications, so
 * their CBI cells (N/A) are not operations.
 */
const std::map<std::string, std::vector<std::string>> kSequential = {
    //               LOG w/tog, LOG w/o tog, LBRA, CBI
    {"apache1", {"2", "2", "1", "1"}},
    {"apache2", {"1*", "1*", "1*", "2*"}},
    {"apache3", {"2", "2", "1", "1"}},
    {"cp", {"2", "-", "1", "2"}},
    {"cppcheck1", {"7*", "7*", "1*", "N/A"}},
    {"cppcheck2", {"1", "1", "1", "N/A"}},
    {"cppcheck3", {"7", "7", "1", "N/A"}},
    {"lighttpd", {"5", "5", "1", "1"}},
    {"ln", {"13*", "-", "1*", "3"}},
    {"mv", {"11", "14", "1", "1"}},
    {"paste", {"5", "-", "2", "4"}},
    {"pbzip1", {"3", "-", "1", "N/A"}},
    {"pbzip2", {"1", "1", "1", "N/A"}},
    {"rm", {"5", "5", "1", "2"}},
    {"sort", {"4", "6", "1", "-"}},
    {"squid1", {"2", "2", "1", "3"}},
    {"squid2", {"11", "11", "1", "1"}},
    {"tac", {"2*", "2*", "1*", "1*"}},
    {"tar1", {"3", "3", "1", "2"}},
    {"tar2", {"3", "-", "1", "2"}},
};

const std::map<std::string, std::vector<std::string>> kConcurrency = {
    //                 LCRLOG Conf1, LCRLOG Conf2, LCRA
    {"apache4", {"4", "5", "1"}},
    {"apache5", {"-", "-", "-"}},
    {"cherokee", {"-", "-", "-"}},
    {"fft", {"abs", "6", "1"}},
    {"lu", {"abs", "6", "1"}},
    {"mozilla-js1", {"3", "8", "1"}},
    {"mozilla-js2", {"-", "-", "-"}},
    {"mozilla-js3", {"3", "11", "1"}},
    {"mysql1", {"-", "-", "-"}},
    {"mysql2", {"3", "8", "1"}},
    {"pbzip3", {"2", "6", "1"}},
};

struct Op
{
    std::size_t bug = 0;
    Tool tool = Tool::Lbra;
    std::string expected;
};

/** A branch position with Table 6's root-cause/related fallback. */
template <typename PositionFn>
std::string
branchCell(const stm::BugSpec &bug, PositionFn position)
{
    std::size_t p = 0;
    if (bug.truth.rootCauseBranch != stm::kNoSourceBranch)
        p = position(bug.truth.rootCauseBranch,
                     bug.truth.rootCauseOutcome);
    if (p == 0 && bug.truth.relatedBranch != stm::kNoSourceBranch) {
        p = position(bug.truth.relatedBranch, bug.truth.relatedOutcome);
        return rankCell(p, p != 0);
    }
    return rankCell(p);
}

std::string
lbrLogCell(const stm::BugSpec &bug, const stm::LbrLogReport &report)
{
    if (!report.failed)
        return "no-fail";
    return branchCell(bug, [&](stm::SourceBranchId b, bool) {
        return report.positionOfBranch(b);
    });
}

stm::EventKey
fpeOf(const stm::BugSpec &bug)
{
    return stm::EventKey::coherence(
        stm::layout::codeAddr(bug.truth.fpeInstr), bug.truth.fpeState,
        bug.truth.fpeStore);
}

/** What the campaign reports besides its cell. */
struct Outcome
{
    std::string cell;
    std::uint64_t attempts = 0; //!< LBRA/LCRA only
    std::uint64_t profiles = 0; //!< LBRA/LCRA only
};

Outcome
runTool(const stm::BugSpec &bug, Tool tool)
{
    Outcome out;
    switch (tool) {
      case Tool::LbrLogTog:
      case Tool::LbrLogNoTog: {
        stm::LogEnhanceOptions opts;
        opts.toggling = tool == Tool::LbrLogTog;
        out.cell = lbrLogCell(
            bug, stm::runLbrLog(bug.program, bug.failing, opts));
        break;
      }
      case Tool::Lbra:
      case Tool::Lcra: {
        stm::AutoDiagOptions opts;
        stm::AutoDiagResult r;
        if (tool == Tool::Lbra) {
            r = stm::runLbra(bug.program, bug.failing, bug.succeeding,
                             opts);
        } else {
            opts.absencePredicates = true;
            r = stm::runLcra(bug.program, bug.failing, bug.succeeding,
                             opts);
        }
        out.attempts = r.failureAttempts + r.successAttempts;
        out.profiles = r.failureRunsUsed + r.successRunsUsed;
        if (!r.diagnosed)
            out.cell = "-";
        else if (tool == Tool::Lcra)
            out.cell = bug.truth.fpeUnreachable
                           ? "-"
                           : rankCell(r.positionOf(fpeOf(bug)));
        else
            out.cell = branchCell(
                bug, [&](stm::SourceBranchId b, bool outcome) {
                    return r.positionOf(
                        stm::EventKey::sourceBranch(b, outcome));
                });
        break;
      }
      case Tool::Cbi: {
        stm::CbiResult r =
            stm::runCbi(bug.program, bug.failing, bug.succeeding);
        out.cell = r.completed
                       ? branchCell(bug,
                                    [&](stm::SourceBranchId b, bool) {
                                        return r.positionOfBranch(b);
                                    })
                       : "-";
        break;
      }
      case Tool::LcrLogConf1:
      case Tool::LcrLogConf2: {
        bool conf1 = tool == Tool::LcrLogConf1;
        stm::LogEnhanceOptions opts;
        opts.lcrConfig = conf1 ? stm::lcrConfSpaceSaving()
                               : stm::lcrConfSpaceConsuming();
        stm::LcrLogReport report =
            stm::runLcrLog(bug.program, bug.failing, opts);
        const stm::GroundTruth &t = bug.truth;
        if (!report.failed || t.fpeUnreachable)
            out.cell = "-";
        else if (conf1 && t.conf1Absence)
            out.cell = "abs";
        else if (conf1)
            out.cell = rankCell(report.positionOfEvent(
                t.conf1Instr, t.conf1State, t.conf1Store));
        else
            out.cell = rankCell(report.positionOfEvent(
                t.fpeInstr, t.fpeState, t.fpeStore));
        break;
      }
    }
    return out;
}

} // namespace

void
runEvaluate(const Args &args, Result &result)
{
    std::vector<stm::BugSpec> bugs;
    std::vector<Op> ops;
    Setup setup([&] {
        bugs = stm::corpus::sequentialBugs();
        for (stm::BugSpec &bug : stm::corpus::concurrencyBugs())
            bugs.push_back(std::move(bug));
        ops.clear();
        for (std::size_t b = 0; b < bugs.size(); ++b) {
            const stm::BugSpec &bug = bugs[b];
            const auto &table =
                bug.isConcurrent ? kConcurrency : kSequential;
            auto it = table.find(bug.id);
            if (it == table.end())
                throw std::runtime_error("no expected cells for " +
                                         bug.id);
            const std::vector<Tool> tools =
                bug.isConcurrent
                    ? std::vector<Tool>{Tool::LcrLogConf1,
                                        Tool::LcrLogConf2, Tool::Lcra}
                    : std::vector<Tool>{Tool::LbrLogTog,
                                        Tool::LbrLogNoTog, Tool::Lbra,
                                        Tool::Cbi};
            for (std::size_t t = 0; t < tools.size(); ++t) {
                if (tools[t] == Tool::Cbi && bug.isCpp)
                    continue;
                ops.push_back({b, tools[t], it->second.at(t)});
            }
        }
        if (bugs.size() != kSequential.size() + kConcurrency.size())
            throw std::runtime_error("corpus and expected cells disagree");
    });

    closedLoop(args, result, setup, ops.size(),
               [&](std::size_t item, PassMetrics &metrics,
                   Accounting *acct) -> std::int64_t {
        const Op &op = ops[item];
        const stm::BugSpec &bug = bugs[op.bug];
        if (acct)
            acct->beginOp();
        Counters before = Counters::now();
        Clock::time_point t0 = Clock::now();
        Outcome out = runTool(bug, op.tool);
        Clock::time_point t1 = Clock::now();

        Counters delta = Counters::now() - before;
        bool lcrLog = op.tool == Tool::LcrLogConf1 ||
                      op.tool == Tool::LcrLogConf2;
        bool log = lcrLog || op.tool == Tool::LbrLogTog ||
                   op.tool == Tool::LbrLogNoTog;
        // The log tools run their machines themselves, not in a
        // RunPool.
        metrics.addCounters(delta, lcrLog || op.tool == Tool::Lcra,
                            op.tool == Tool::Lbra,
                            log ? msBetween(t0, t1) : 0.0);
        if (op.tool == Tool::Cbi) {
            metrics.add("baseline.cbi_ms", msBetween(t0, t1));
            metrics.add("baseline.cbi_runs",
                        delta.runs - delta.discarded);
        }
        metrics.add("diag.attempts", static_cast<double>(out.attempts));
        metrics.add("hw.profiles", static_cast<double>(out.profiles));
        std::string name = bug.id + "/" + toolName(op.tool);
        if (acct) {
            acct->call(op.tool == Tool::Cbi ? "baseline" : "diag",
                       nanosBetween(t0, t1), acct->takeEvents());
            std::string why;
            if (!acct->endOp(nanosBetween(t0, t1), &why)) {
                result.fail(name + ": " + why);
                return -1;
            }
        }
        if (out.cell != op.expected) {
            result.fail(name + ": cell " + out.cell + ", expected " +
                        op.expected);
            return -1;
        }
        return nanosBetween(t0, t1);
    });
}

} // namespace perfbench
