/**
 * @file
 * RunMemo: the runs of one campaign phase, keyed by the seeded
 * decisions each run took.
 *
 * Within one phase the program, the plan and every MachineOptions
 * field except sched.seed are fixed. A run reads its seed only through
 * SeedStream (vm/seed_stream.hh), so a run whose every seed read is a
 * nextBool(p) decision is a deterministic function of its decisions'
 * outcomes: a later seed that draws the same outcomes takes the same
 * path to the same RunResult. Many seeds share a path. A sequential
 * bug's run draws nothing at all, so every attempt of its phase is
 * one run; mysql1's 50,064 attempts take 24 paths over three phases.
 * The memo executes each path at most twice (see below).
 *
 * The memo keeps the paths in a binary radix trie. A node holds a
 * stretch of draws, one byte each (probe << 1 | outcome, the probe
 * drawing with the probability the phase's options give it), and ends
 * either in a leaf or in a branch on the outcome of the next draw;
 * each child's stretch starts with that draw. For a new seed, run()
 * walks the trie with a fresh SeedStream, drawing nextBool(p) at every
 * byte: reaching a leaf that holds a RunResult returns a copy of it,
 * and otherwise the memo executes the Machine with its seed recorder
 * on and inserts the path. A run with no draws is the root leaf.
 *
 * A leaf keeps its RunResult from the path's second run on. A path run
 * once costs only its draws, so a phase whose every path is distinct
 * (the kirq-* bugs, with thousands of draws and up to a megabyte of
 * success-site profiles per run) holds no results, and the memo never
 * holds more results than paths that repeat.
 *
 * A run that reads its seed any other way (a geometric draw, a direct
 * seed read or the CBI countdown: the CCI, PBI and CBI plans) is
 * executed and never stored.
 *
 * One memo serves one phase: it is built with the phase's program,
 * plan and options, and run() takes only the seed. Pool workers share
 * it; lookups take a shared lock, inserts a unique one.
 */

#ifndef STM_EXEC_RUN_MEMO_HH
#define STM_EXEC_RUN_MEMO_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "program/program.hh"
#include "vm/options.hh"
#include "vm/run_result.hh"

namespace stm
{

/** See the file comment. */
class RunMemo
{
  public:
    /** The phase: every run is Machine(prog, base + seed, plan). */
    RunMemo(ProgramPtr prog, std::shared_ptr<const Instrumentation> plan,
            const MachineOptions &base);
    /** Folds hits() and paths() into execStats() (memo_hits/paths). */
    ~RunMemo();

    RunMemo(const RunMemo &) = delete;
    RunMemo &operator=(const RunMemo &) = delete;

    /**
     * The RunResult of the phase's run with @p seed: a copy of the
     * stored result when @p seed draws the outcomes of a path that ran
     * twice, else executed. An executed run whose path holds every
     * seed read stores the path, or on its second run the result.
     * Thread-safe.
     */
    RunResult run(std::uint64_t seed);

    /** Runs answered from the trie. */
    std::uint64_t hits() const { return hits_; }
    /** Distinct paths stored (leaves), with or without a result. */
    std::uint64_t paths() const;

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Node
    {
        /** Draws in this stretch: probe << 1 | outcome. */
        std::vector<std::uint8_t> draws;
        /** Branch: the child whose first draw came out 0 / 1. */
        std::uint32_t child[2] = {kNone, kNone};
        /** Leaf: the path's result, once the path ran twice. */
        std::optional<RunResult> result;

        bool leaf() const { return child[0] == kNone; }
    };

    /** The stored result @p seed's draws lead to, if any. */
    std::optional<RunResult> find(std::uint64_t seed) const;
    void insert(const std::vector<std::uint8_t> &path,
                const RunResult &result);

    ProgramPtr prog_;
    std::shared_ptr<const Instrumentation> plan_;
    MachineOptions base_;
    /** Each Probe's probability, indexed by the Probe. */
    double prob_[2];

    mutable std::shared_mutex mu_;
    /** nodes_[0] is the root once a path is stored. */
    std::vector<Node> nodes_;
    std::uint64_t leaves_ = 0;
    std::atomic<std::uint64_t> hits_{0};
};

} // namespace stm

#endif // STM_EXEC_RUN_MEMO_HH
