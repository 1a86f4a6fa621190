/**
 * @file
 * Shared pieces of the end-to-end benchmark (stm_perfbench): arguments, the
 * result record printed as the last stdout line, quantiles, the
 * benchmark's own call spans, and the per-operation accounting that
 * splits a traced operation's wall time into layer self times.
 *
 * The benchmark only calls the library's public entry points. Per-layer
 * numbers come from three places outside the program: the benchmark's
 * own timing of each call, the public counters (execStats, vmStats,
 * the decode cache, Collector::stats) and the obs recorder's spans.
 */

#ifndef STM_PERFBENCH_COMMON_HH
#define STM_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(nanosBetween(a, b)) / 1e6;
}

/** Command-line arguments. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /**
     * The RunPool job count a default stm_diagnose would use here
     * (STM_JOBS, else the host's core count), read before kJobs is
     * installed.
     */
    unsigned hostJobs = 1;
};

/**
 * RunPool workers of every timed campaign, installed as the process
 * default (what `--jobs 1` does for the tools) so that campaign
 * options keep their default of 0. Fixed rather than the host's core
 * count so that runs on different hosts do the same work. One job,
 * because on a shared 4-vCPU host the wall time of multi-threaded
 * campaigns follows the neighbours' load: with 2 or 4 workers the
 * pass time of diagnose and evaluate spread by 30-130% between runs,
 * serially by about 5% and 16%. The traced runs add one pass at
 * Args::hostJobs for the RunPool's own figures.
 */
constexpr unsigned kJobs = 1;

/**
 * Seconds after process start by which every pass should be done: a
 * pass (past the first of its kind) does not start if the longest
 * earlier pass of its kind would end after this. run.py stops
 * stm_perfbench at 170 s, which leaves room for a pass that a loaded
 * host makes slower than the earlier ones.
 */
constexpr double kDeadlineSeconds = 120.0;

/** True if a pass of @p passSeconds started now would miss the deadline. */
bool pastDeadline(double passSeconds);

/** Number of times each workload repeats its set-up per process. */
constexpr int kSetupRepeats = 15;

/**
 * One invocation's outcome. End-to-end metrics are printed with
 * --trace 0, per-layer ones with --trace 1; both name sets are fixed
 * here so every workload prints every metric of its mode.
 */
class Result
{
  public:
    void set(const std::string &name, double value);
    /** Record a failed operation and say why on stderr. */
    void fail(const std::string &why);
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t attempted() const { return attempted_; }
    bool ok() const { return correct_ && failed_ == 0; }
    /** Mark the whole run incorrect (a check outside any operation). */
    void invalidate(const std::string &why);

    /** The final JSON line for @p trace mode. */
    std::string json(bool trace) const;

  private:
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, double> values_;
};

/** Quantile by linear interpolation (q in [0,1]); 0 when empty. */
double quantile(std::vector<double> values, double q);

/**
 * Latency quantile robust to a shared host's slow spells: @p groups
 * (passes or rounds, in run order) are joined into windows of at
 * least kWindowSamples samples, and the result is the median of the
 * windows' quantiles. A window's p90 has ten samples beyond it.
 * Pooled over a whole run, the p90 moved with the few spells a run
 * happened to meet, and in the closed loops it sat on the gap
 * between two bugs' latencies.
 */
double windowedQuantile(const std::vector<std::vector<double>> &groups,
                        double q);
constexpr std::size_t kWindowSamples = 100;

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * A rank as the paper's tables print it: "-" for 0 (not ranked), a
 * trailing '*' when the root-cause-related branch was scored.
 */
std::string rankCell(std::size_t rank, bool related = false);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** splitmix64 step: the benchmark's only random source. */
std::uint64_t nextRandom(std::uint64_t &state);

/** Deterministic seeded shuffle (same seed, same order). */
template <typename T>
void
shuffle(std::vector<T> &items, std::uint64_t &state)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        std::size_t j = nextRandom(state) % i;
        std::swap(items[i - 1], items[j]);
    }
}

/**
 * A workload's set-up, timed kSetupRepeats times per run: once before
 * the first operation and again between passes, spread over the
 * measuring time so that the reported median (setup_s) does not hang
 * on how loaded the host was in one instant. Set-up is deterministic
 * in the seed, so each repeat rebuilds the same inputs.
 */
class Setup
{
  public:
    /** Runs @p build once, timed. */
    explicit Setup(std::function<void()> build);
    /**
     * Repeat the set-up once if @p fraction (0..1) of the measuring
     * time has passed the next repeat's share of it.
     */
    void maybeRepeat(double fraction);
    /** Set setup_s to the median of the timed set-ups. */
    void report(Result &result) const;

  private:
    void timeOnce();

    std::function<void()> build_;
    std::vector<double> seconds_;
};

/**
 * A snapshot of the library's public work counters: execStats(),
 * vmStats() and the process-wide decode cache. Read only while no
 * run is in flight (between operations).
 */
struct Counters
{
    double runs = 0, discarded = 0, busyUs = 0, capacityUs = 0;
    double machines = 0, steps = 0, vmWallUs = 0, memAccesses = 0,
           memFastHits = 0, cacheLookups = 0, cacheMruHits = 0,
           fusedPairs = 0, irqDelivered = 0, irqHandlerSteps = 0;
    double decodeMisses = 0;

    static Counters now();
    Counters operator-(const Counters &base) const;
};

/**
 * Per-pass totals folded into per-run medians. Values added during a
 * pass are summed; endPass() derives the ratios and stores one
 * sample per metric. Names starting with '_' are raw inputs of the
 * ratios and never printed.
 */
class PassMetrics
{
  public:
    void add(const std::string &name, double value) { cur_[name] += value; }
    /**
     * Fold one operation's counter delta into the pass. @p lcr: an
     * LCR campaign; @p lbra: an LBRA campaign. @p outsidePoolMs: wall
     * time of a call whose machines run outside the RunPool (the log
     * tools), which execStats() does not see as busy time.
     */
    void addCounters(const Counters &delta, bool lcr, bool lbra,
                     double outsidePoolMs = 0.0);
    void endPass();
    std::size_t passes() const { return passes_; }
    /** Set every metric to the median of its pass samples. */
    void report(Result &result) const;
    /** Set only the metrics @p names (median of their samples). */
    void report(Result &result,
                const std::vector<std::string> &names) const;
    /**
     * Invalidate @p result unless @p name read the same in every
     * pass of this and @p other (a deterministic work count).
     */
    void requireConstant(Result &result, const std::string &name,
                         const PassMetrics &other) const;
    void requireConstant(Result &result, const std::string &name) const
    {
        requireConstant(result, name, PassMetrics());
    }

  private:
    std::map<std::string, double> cur_;
    std::map<std::string, std::vector<double>> samples_;
    std::size_t passes_ = 0;
};

/**
 * Layer self-time accounting of traced operations.
 *
 * An operation is a tree of spans on the thread that runs it: the
 * operation itself, the benchmark's call spans below it, and the obs
 * spans the library records on that thread during each call below
 * those. A span's self time is its duration minus its children's.
 * Every operation must account for itself: no self time is negative,
 * and the layer self times plus the operation's unattributed
 * remainder add up to its wall time.
 */
class Accounting
{
  public:
    /**
     * Give the calling thread a ring of @p ringEvents (large enough
     * for everything it records before the next takeEvents()) and
     * learn its recorder id. Call with tracing on, before any other
     * thread records: rings of threads created later (RunPool
     * workers, producers) stay small, because nothing reads them and
     * every exiting thread leaves its ring behind.
     */
    void claimThread(std::size_t ringEvents);
    /**
     * The obs events the claimed thread recorded since the last
     * take, oldest first; clears every ring. Call only while no
     * other thread records.
     */
    std::vector<stm::obs::TraceEvent> takeEvents();

    void beginOp();
    /**
     * A benchmark call into @p layer that took @p ns; @p obs are the obs
     * events the calling thread recorded during it.
     */
    void call(const std::string &layer, std::int64_t ns,
              const std::vector<stm::obs::TraceEvent> &obs = {});
    /** Close the operation of wall time @p ns; false on a violation. */
    bool endOp(std::int64_t ns, std::string *why);

    /** Inclusive time of each obs span name, summed (ns). */
    const std::map<std::string, std::int64_t> &
    obsTotals() const
    {
        return obsTotals_;
    }
    /** Self time per layer, including "unattributed" (ns). */
    const std::map<std::string, std::int64_t> &
    selfTotals() const
    {
        return selfTotals_;
    }
    std::int64_t wallTotal() const { return wallTotal_; }
    std::uint64_t ops() const { return ops_; }
    std::uint64_t violations() const { return violations_; }
    /** Events recorded by all threads (incl. ring-evicted ones). */
    std::uint64_t obsEvents() const { return obsEvents_; }

    /** Layer of an obs span id ("vm", "exec", "fleet", "diag"). */
    static std::string layerOf(stm::obs::TraceId id);

  private:
    std::map<std::string, std::int64_t> opSelf_;
    std::int64_t opCalls_ = 0;
    std::string opWhy_;
    std::uint32_t tid_ = 0;

    std::map<std::string, std::int64_t> obsTotals_;
    std::map<std::string, std::int64_t> selfTotals_;
    std::int64_t wallTotal_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t violations_ = 0;
    std::uint64_t obsEvents_ = 0;
};

/** Turn the obs recorder on or off; clears every ring. */
void setTracing(bool on);

/**
 * One operation of a closed-loop workload: run item @p item, fold
 * its counters into @p metrics, and report its calls to @p acct when
 * the pass is traced (else @p acct is null). Returns the operation's
 * timed wall time in ns, or a negative value after recording a
 * failure in the result.
 */
using ClosedLoopOp = std::function<std::int64_t(
    std::size_t item, PassMetrics &metrics, Accounting *acct)>;

/**
 * Drive a closed loop with one client: whole passes over @p items
 * items, each pass in a fresh seeded order, until @p args.seconds
 * have passed (at least three passes; in trace mode untraced and
 * traced passes alternate, at least two of each) or the next pass
 * would miss kDeadlineSeconds, repeating @p setup between passes.
 * Sets setup_s, pass_s (the median of the run's passes) and the
 * latency percentiles (windowedQuantile over passes), or the
 * per-layer metrics in trace mode. Trace
 * mode also runs one untraced pass at Args::hostJobs, the RunPool's
 * default size: the exec metrics that only a multi-threaded pool
 * moves (discarded speculative runs, idle capacity, pool start) come
 * from that pass.
 */
void closedLoop(const Args &args, Result &result, Setup &setup,
                std::size_t items, const ClosedLoopOp &op);

/** Report the traced passes' obs-derived per-layer metrics. */
void reportAccounting(Result &result, const Accounting &acct,
                      std::size_t tracedPasses);

/** Host and build stamp, printed on stdout before the result. */
std::string stampJson(const Args &args);

// Workloads. Each fills @p result and returns normally; exceptions
// escaping a workload make the run fail without a result line.
void runDiagnose(const Args &args, Result &result);
void runEvaluate(const Args &args, Result &result);
void runFleet(const Args &args, Result &result);

} // namespace perfbench

#endif // STM_PERFBENCH_COMMON_HH
