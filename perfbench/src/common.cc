#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "exec/run_pool.hh"
#include "fleet/incremental_ranker.hh"
#include "vm/decode_cache.hh"
#include "vm/vm_stats.hh"

namespace perfbench
{

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"pass_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

// Keep in step with BENCHMARK.json. Timings and counts are per pass
// (median over passes) unless the unit says otherwise; a metric that
// does not apply to a workload reads 0. exec.runs_discarded through
// exec.pool_pass_s come from the closed loops' pass at the host's
// default job count, the rest from the serial passes.
const MetricSpec kPerLayer[] = {
    {"failed_frac", "frac"},
    {"corpus.build_ms", "ms/pass"},
    {"exec.runs_used", "count/pass"},
    {"exec.busy_ms", "ms/pass"},
    {"exec.runs_discarded", "count/pass"},
    {"exec.useful_frac", "frac"},
    {"exec.lbra_useful_frac", "frac"},
    {"exec.idle_ms", "ms/pass"},
    {"exec.utilization", "frac"},
    {"exec.pool_start_us", "us"},
    {"exec.pool_pass_s", "s"},
    {"vm.run_ms", "ms/pass"},
    {"vm.setup_ms", "ms/pass"},
    {"vm.machines", "count/pass"},
    {"vm.steps", "count/pass"},
    {"vm.steps_per_s", "1/s"},
    {"vm.fused_frac", "frac"},
    {"vm.mem_fast_frac", "frac"},
    {"vm.decode_misses", "count/pass"},
    {"cache.lookups", "count/pass"},
    {"cache.mru_hit_frac", "frac"},
    {"cache.lcr_lookups", "count/pass"},
    {"cache.lcr_mru_hit_frac", "frac"},
    {"hw.profiles", "count/pass"},
    {"driver.irq_delivered", "count/pass"},
    {"driver.irq_handler_steps", "count/pass"},
    {"diag.pin_search_ms", "ms/pass"},
    {"diag.reinstrument_ms", "ms/pass"},
    {"diag.failure_collect_ms", "ms/pass"},
    {"diag.success_collect_ms", "ms/pass"},
    {"diag.rank_ms", "ms/pass"},
    {"diag.attempts", "count/pass"},
    {"diag.useful_frac", "frac"},
    {"baseline.cbi_ms", "ms/pass"},
    {"baseline.cbi_runs", "count/pass"},
    {"fleet.ingest_ms", "ms/pass"},
    {"fleet.drain_ms", "ms/pass"},
    {"fleet.rescore_ms", "ms/pass"},
    {"fleet.snapshot_ms", "ms/pass"},
    {"fleet.blocked", "count/pass"},
    {"fleet.queue_high_water", "count"},
    {"fleet.accepted", "count/pass"},
    {"fleet.duplicates", "count/pass"},
    {"fleet.decode_errors", "count/pass"},
    {"fleet.generator_late_p90_ms", "ms"},
    {"attr.corpus_frac", "frac"},
    {"attr.vm_frac", "frac"},
    {"attr.exec_frac", "frac"},
    {"attr.diag_frac", "frac"},
    {"attr.baseline_frac", "frac"},
    {"attr.fleet_frac", "frac"},
    {"attr.unattributed_frac", "frac"},
    {"obs.accounting_violations", "count"},
    {"obs.events_per_op", "count"},
    {"obs.trace_overhead_frac", "frac"},
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/**
 * Ring of the thread running closed-loop operations: it keeps a whole
 * operation (a serial CBI campaign records over a million events,
 * most of them vm.quantum spans). Created once per process.
 */
constexpr std::size_t kCallerRingEvents = std::size_t{1} << 22;
/** Rings of every other thread, which are never read. */
constexpr std::size_t kWorkerRingEvents = 1024;

const Clock::time_point kProcessStart = Clock::now();

} // namespace

bool
pastDeadline(double passSeconds)
{
    double elapsed =
        static_cast<double>(nanosBetween(kProcessStart, Clock::now())) /
        1e9;
    return elapsed + passSeconds > kDeadlineSeconds;
}

void
Result::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
Result::fail(const std::string &why)
{
    ++failed_;
    std::cerr << "perfbench: failed operation: " << why << '\n';
}

void
Result::invalidate(const std::string &why)
{
    correct_ = false;
    std::cerr << "perfbench: incorrect: " << why << '\n';
}

std::string
Result::json(bool trace) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (ok() ? "true" : "false")
       << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricSpec &spec) {
        auto it = values_.find(spec.name);
        double v = it == values_.end() ? 0.0 : it->second;
        os << (first ? "" : ", ") << quoted(spec.name)
           << ": {\"value\": " << number(v)
           << ", \"unit\": " << quoted(spec.unit) << '}';
        first = false;
    };
    if (trace) {
        for (const MetricSpec &spec : kPerLayer)
            emit(spec);
    } else {
        for (const MetricSpec &spec : kEndToEnd)
            emit(spec);
    }
    os << "}}";
    return os.str();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
windowedQuantile(const std::vector<std::vector<double>> &groups, double q)
{
    std::size_t left = 0;
    for (const std::vector<double> &g : groups)
        left += g.size();
    std::vector<double> windows, window;
    for (const std::vector<double> &g : groups) {
        window.insert(window.end(), g.begin(), g.end());
        left -= g.size();
        // The last window takes whatever would not fill another.
        if (window.size() >= kWindowSamples && left >= kWindowSamples) {
            windows.push_back(quantile(window, q));
            window.clear();
        }
    }
    if (!window.empty())
        windows.push_back(quantile(window, q));
    return median(windows);
}

std::string
rankCell(std::size_t rank, bool related)
{
    if (rank == 0)
        return "-";
    return std::to_string(rank) + (related ? "*" : "");
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Setup::Setup(std::function<void()> build) : build_(std::move(build))
{
    timeOnce();
}

void
Setup::timeOnce()
{
    Clock::time_point t0 = Clock::now();
    build_();
    seconds_.push_back(
        static_cast<double>(nanosBetween(t0, Clock::now())) / 1e9);
}

void
Setup::maybeRepeat(double fraction)
{
    if (seconds_.size() < static_cast<std::size_t>(kSetupRepeats) &&
        fraction * kSetupRepeats >= static_cast<double>(seconds_.size()))
        timeOnce();
}

void
Setup::report(Result &result) const
{
    result.set("setup_s", median(seconds_));
}

Counters
Counters::now()
{
    const stm::StatGroup &exec = stm::execStats();
    const stm::StatGroup &vm = stm::vmStats();
    auto v = [](const stm::StatGroup &g, const char *name) {
        return static_cast<double>(g.value(name));
    };
    Counters c;
    c.runs = v(exec, "runs");
    c.discarded = v(exec, "runs_discarded");
    c.busyUs = v(exec, "busy_micros");
    c.capacityUs = v(exec, "capacity_micros");
    c.machines = v(vm, "runs");
    c.steps = v(vm, "steps");
    c.vmWallUs = v(vm, "wall_micros");
    c.memAccesses = v(vm, "mem_accesses");
    c.memFastHits = v(vm, "mem_fast_hits");
    c.cacheLookups = v(vm, "cache_lookups");
    c.cacheMruHits = v(vm, "cache_mru_hits");
    c.fusedPairs = v(vm, "fused_pairs");
    c.irqDelivered = v(vm, "irq_delivered");
    c.irqHandlerSteps = v(vm, "irq_handler_steps");
    c.decodeMisses =
        v(stm::globalDecodeCache().statsSnapshot(), "misses");
    return c;
}

Counters
Counters::operator-(const Counters &base) const
{
    Counters d = *this;
    d.runs -= base.runs;
    d.discarded -= base.discarded;
    d.busyUs -= base.busyUs;
    d.capacityUs -= base.capacityUs;
    d.machines -= base.machines;
    d.steps -= base.steps;
    d.vmWallUs -= base.vmWallUs;
    d.memAccesses -= base.memAccesses;
    d.memFastHits -= base.memFastHits;
    d.cacheLookups -= base.cacheLookups;
    d.cacheMruHits -= base.cacheMruHits;
    d.fusedPairs -= base.fusedPairs;
    d.irqDelivered -= base.irqDelivered;
    d.irqHandlerSteps -= base.irqHandlerSteps;
    d.decodeMisses -= base.decodeMisses;
    return d;
}

void
PassMetrics::addCounters(const Counters &d, bool lcr, bool lbra,
                         double outsidePoolMs)
{
    add("exec.runs_used", d.runs - d.discarded);
    add("exec.runs_discarded", d.discarded);
    add("_exec.runs", d.runs);
    if (lbra) {
        add("_exec.lbra_used", d.runs - d.discarded);
        add("_exec.lbra_runs", d.runs);
    }
    add("exec.busy_ms", d.busyUs / 1e3);
    add("_exec.capacity_ms", d.capacityUs / 1e3);
    add("_exec.outside_pool_ms", outsidePoolMs);
    add("vm.run_ms", d.vmWallUs / 1e3);
    add("vm.machines", d.machines);
    add("vm.steps", d.steps);
    add("_vm.fused_pairs", d.fusedPairs);
    add("_vm.mem_accesses", d.memAccesses);
    add("_vm.mem_fast_hits", d.memFastHits);
    add("vm.decode_misses", d.decodeMisses);
    add(lcr ? "cache.lcr_lookups" : "cache.lookups", d.cacheLookups);
    add(lcr ? "_cache.lcr_mru_hits" : "_cache.mru_hits",
        d.cacheMruHits);
    add("driver.irq_delivered", d.irqDelivered);
    add("driver.irq_handler_steps", d.irqHandlerSteps);
}

void
PassMetrics::endPass()
{
    auto get = [this](const char *name) {
        auto it = cur_.find(name);
        return it == cur_.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    if (get("_exec.runs") > 0) {
        cur_["exec.useful_frac"] =
            ratio(get("exec.runs_used"), get("_exec.runs"));
        cur_["exec.lbra_useful_frac"] =
            ratio(get("_exec.lbra_used"), get("_exec.lbra_runs"));
        cur_["exec.idle_ms"] =
            get("_exec.capacity_ms") - get("exec.busy_ms");
        cur_["exec.utilization"] =
            ratio(get("exec.busy_ms"), get("_exec.capacity_ms"));
        // Machine set-up: the time the runs took that the VM's own
        // clock does not see.
        cur_["vm.setup_ms"] = get("exec.busy_ms") +
                              get("_exec.outside_pool_ms") -
                              get("vm.run_ms");
    }
    if (get("vm.steps") > 0) {
        cur_["vm.steps_per_s"] =
            ratio(get("vm.steps"), get("vm.run_ms") / 1e3);
        cur_["vm.fused_frac"] =
            ratio(2 * get("_vm.fused_pairs"), get("vm.steps"));
        cur_["vm.mem_fast_frac"] = ratio(get("_vm.mem_fast_hits"),
                                         get("_vm.mem_accesses"));
        cur_["cache.mru_hit_frac"] =
            ratio(get("_cache.mru_hits"), get("cache.lookups"));
        cur_["cache.lcr_mru_hit_frac"] = ratio(
            get("_cache.lcr_mru_hits"), get("cache.lcr_lookups"));
    }
    if (get("diag.attempts") > 0)
        cur_["diag.useful_frac"] =
            ratio(get("hw.profiles"), get("diag.attempts"));
    for (const auto &[name, value] : cur_)
        samples_[name].push_back(value);
    cur_.clear();
    ++passes_;
}

void
PassMetrics::report(Result &result) const
{
    for (const auto &[name, values] : samples_)
        if (name[0] != '_')
            result.set(name, median(values));
}

void
PassMetrics::report(Result &result,
                    const std::vector<std::string> &names) const
{
    for (const std::string &name : names) {
        auto it = samples_.find(name);
        if (it != samples_.end())
            result.set(name, median(it->second));
    }
}

void
PassMetrics::requireConstant(Result &result, const std::string &name,
                             const PassMetrics &other) const
{
    std::vector<double> values;
    for (const PassMetrics *m : {this, &other}) {
        auto it = m->samples_.find(name);
        if (it != m->samples_.end())
            values.insert(values.end(), it->second.begin(),
                          it->second.end());
    }
    for (double v : values)
        if (v != values.front()) {
            result.invalidate(name + " differs between passes");
            return;
        }
}

std::string
Accounting::layerOf(stm::obs::TraceId id)
{
    using stm::obs::TraceId;
    switch (id) {
      case TraceId::VmRun:
      case TraceId::VmQuantum:
        return "vm";
      case TraceId::ExecBatch:
      case TraceId::ExecTask:
        return "exec";
      case TraceId::FleetDrain:
      case TraceId::FleetRescore:
        return "fleet";
      case TraceId::DiagPinSearch:
      case TraceId::DiagReinstrument:
      case TraceId::DiagFailureCollect:
      case TraceId::DiagSuccessCollect:
      case TraceId::DiagRank:
        return "diag";
      default:
        return "other";
    }
}

void
Accounting::claimThread(std::size_t ringEvents)
{
    // An empty ranker's first rank() records one rescore span on the
    // calling thread and touches no counter.
    stm::obs::setTraceCapacity(ringEvents);
    stm::fleet::IncrementalRanker probe;
    probe.rank();
    stm::obs::setTraceCapacity(kWorkerRingEvents);
    for (const auto &e : stm::obs::collectTrace())
        if (e.id == stm::obs::TraceId::FleetRescore)
            tid_ = e.tid;
    stm::obs::clearTrace();
}

std::vector<stm::obs::TraceEvent>
Accounting::takeEvents()
{
    obsEvents_ += stm::obs::traceEventsRecorded();
    std::vector<stm::obs::TraceEvent> mine;
    for (const auto &e : stm::obs::collectTrace())
        if (e.tid == tid_)
            mine.push_back(e);
    stm::obs::clearTrace();
    return mine;
}

void
Accounting::beginOp()
{
    opSelf_.clear();
    opCalls_ = 0;
    opWhy_.clear();
}

void
Accounting::call(const std::string &layer, std::int64_t ns,
                 const std::vector<stm::obs::TraceEvent> &obs)
{
    struct Open
    {
        stm::obs::TraceId id;
        std::uint64_t begin;
        std::int64_t children;
    };
    opCalls_ += ns;
    std::int64_t children = 0;
    std::vector<Open> stack;
    for (const auto &e : obs) {
        if (e.phase == stm::obs::TracePhase::Instant)
            continue;
        if (e.phase == stm::obs::TracePhase::Begin) {
            stack.push_back({e.id, e.tsc, 0});
            continue;
        }
        if (stack.empty() || stack.back().id != e.id) {
            opWhy_ = "unmatched obs span end " +
                     stm::obs::traceIdName(e.id);
            break;
        }
        Open open = stack.back();
        stack.pop_back();
        std::int64_t dur = static_cast<std::int64_t>(e.tsc - open.begin);
        std::int64_t self = dur - open.children;
        if (self < 0)
            opWhy_ = "negative self time in " +
                     stm::obs::traceIdName(e.id);
        opSelf_[layerOf(e.id)] += self;
        obsTotals_[stm::obs::traceIdName(e.id)] += dur;
        if (stack.empty())
            children += dur;
        else
            stack.back().children += dur;
    }
    if (!stack.empty() && opWhy_.empty())
        opWhy_ = "unclosed obs span " +
                 stm::obs::traceIdName(stack.back().id);
    if (ns < children)
        opWhy_ = "obs spans outlast the " + layer + " call";
    opSelf_[layer] += ns - children;
}

bool
Accounting::endOp(std::int64_t ns, std::string *why)
{
    opSelf_["unattributed"] = ns - opCalls_;
    if (ns < opCalls_ && opWhy_.empty())
        opWhy_ = "calls outlast their operation";
    std::int64_t sum = 0;
    for (const auto &[layer, self] : opSelf_)
        sum += self;
    if (sum != ns && opWhy_.empty())
        opWhy_ = "layer self times do not sum to the wall time";
    ++ops_;
    if (!opWhy_.empty()) {
        ++violations_;
        *why = opWhy_;
        return false;
    }
    wallTotal_ += ns;
    for (const auto &[layer, self] : opSelf_)
        selfTotals_[layer] += self;
    return true;
}

namespace
{

/**
 * Median time to start and stop a RunPool of @p jobs workers, the
 * pool every campaign of the host-jobs pass starts.
 */
double
poolStartMicros(unsigned jobs)
{
    std::vector<double> times;
    for (int i = 0; i < 9; ++i) {
        Clock::time_point t0 = Clock::now();
        { stm::RunPool pool(jobs); }
        times.push_back(
            static_cast<double>(nanosBetween(t0, Clock::now())) / 1e3);
    }
    return median(times);
}

} // namespace

void
closedLoop(const Args &args, Result &result, Setup &setup,
           std::size_t items, const ClosedLoopOp &op)
{
    // At least three untraced passes, or two of each in trace mode.
    const std::size_t minPasses = args.trace ? 4 : 3;
    std::uint64_t order_state = args.seed;
    std::vector<std::size_t> order(items);
    for (std::size_t i = 0; i < items; ++i)
        order[i] = i;

    PassMetrics plain, traced, pooled;
    Accounting acct;
    std::vector<double> passSeconds, plainOpSum, tracedOpSum;
    std::vector<std::vector<double>> latencies; // per untraced pass
    double longest[2] = {0.0, 0.0}; // untraced, traced pass (s)
    Clock::time_point start = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
        bool tracedPass = args.trace && pass % 2 == 1;
        bool wanted = pass < minPasses ||
                      nanosBetween(start, Clock::now()) <
                          args.seconds * 1e9;
        // The first pass of each kind always runs.
        if (pass >= (args.trace ? 2u : 1u) &&
            (!wanted || pastDeadline(longest[tracedPass])))
            break;
        shuffle(order, order_state);
        if (tracedPass) {
            setTracing(true);
            acct.claimThread(kCallerRingEvents);
        }
        std::int64_t opSum = 0;
        if (!args.trace)
            latencies.emplace_back();
        Clock::time_point t0 = Clock::now();
        for (std::size_t item : order) {
            result.attempt();
            std::int64_t ns =
                op(item, tracedPass ? traced : plain,
                   tracedPass ? &acct : nullptr);
            if (ns < 0)
                continue;
            opSum += ns;
            if (!args.trace)
                latencies.back().push_back(static_cast<double>(ns) /
                                           1e6);
        }
        double seconds =
            static_cast<double>(nanosBetween(t0, Clock::now())) / 1e9;
        longest[tracedPass] = std::max(longest[tracedPass], seconds);
        if (tracedPass) {
            setTracing(false);
            traced.endPass();
            tracedOpSum.push_back(static_cast<double>(opSum));
        } else {
            plain.endPass();
            plainOpSum.push_back(static_cast<double>(opSum));
            passSeconds.push_back(seconds);
        }
        if (tracedPass && traced.passes() == 1) {
            // The RunPool's own figures: one untraced pass at the
            // host's default job count, its ops checked like any.
            stm::setDefaultJobs(args.hostJobs);
            shuffle(order, order_state);
            Clock::time_point p0 = Clock::now();
            for (std::size_t item : order) {
                result.attempt();
                op(item, pooled, nullptr);
            }
            pooled.add("exec.pool_pass_s",
                       static_cast<double>(
                           nanosBetween(p0, Clock::now())) /
                           1e9);
            stm::setDefaultJobs(kJobs);
            pooled.add("exec.pool_start_us",
                       poolStartMicros(args.hostJobs));
            pooled.endPass();
        }
        setup.maybeRepeat(static_cast<double>(
                              nanosBetween(start, Clock::now())) /
                          (args.seconds * 1e9));
    }
    setup.report(result);

    if (!args.trace) {
        result.set("pass_s", median(passSeconds));
        result.set("latency_p50_ms", windowedQuantile(latencies, 0.5));
        result.set("latency_p90_ms", windowedQuantile(latencies, 0.9));
        return;
    }
    plain.report(result);
    pooled.report(result,
                  {"exec.runs_discarded", "exec.useful_frac",
                   "exec.lbra_useful_frac", "exec.idle_ms",
                   "exec.utilization", "exec.pool_start_us",
                   "exec.pool_pass_s"});
    for (const char *name :
         {"exec.runs_used", "diag.attempts", "hw.profiles",
          "baseline.cbi_runs"}) {
        // Speculation must not change what a campaign uses.
        plain.requireConstant(result, name, pooled);
    }
    reportAccounting(result, acct, traced.passes());
    result.set("obs.trace_overhead_frac",
               median(tracedOpSum) / median(plainOpSum) - 1.0);
}

void
reportAccounting(Result &result, const Accounting &acct,
                 std::size_t tracedPasses)
{
    double passes = static_cast<double>(std::max<std::size_t>(
        tracedPasses, 1));
    auto total = [](const std::map<std::string, std::int64_t> &m,
                    const std::string &key) {
        auto it = m.find(key);
        return it == m.end() ? 0.0 : static_cast<double>(it->second);
    };
    for (const char *phase :
         {"pin_search", "reinstrument", "failure_collect",
          "success_collect", "rank"}) {
        result.set(std::string("diag.") + phase + "_ms",
                   total(acct.obsTotals(), std::string("diag.") + phase) /
                       1e6 / passes);
    }
    double wall = static_cast<double>(acct.wallTotal());
    for (const char *layer : {"corpus", "vm", "exec", "diag",
                              "baseline", "fleet", "unattributed"}) {
        result.set(std::string("attr.") + layer + "_frac",
                   wall > 0 ? total(acct.selfTotals(), layer) / wall
                            : 0.0);
    }
    result.set("obs.accounting_violations",
               static_cast<double>(acct.violations()));
    result.set("obs.events_per_op",
               acct.ops() ? static_cast<double>(acct.obsEvents()) /
                                static_cast<double>(acct.ops())
                          : 0.0);
}

void
setTracing(bool on)
{
    stm::obs::setTracingEnabled(on);
    stm::obs::clearTrace();
}

std::string
stampJson(const Args &args)
{
    std::ostringstream os;
    os << "{\"workload\": " << quoted(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"online_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"jobs\": " << stm::defaultJobs()
       << ", \"host_jobs\": " << args.hostJobs
       << ", \"compiler\": " << quoted(STM_PERFBENCH_COMPILER)
       << ", \"build_type\": " << quoted(STM_PERFBENCH_BUILD_TYPE)
       << ", \"trace_compiled_in\": "
       << (stm::obs::kTraceCompiledIn ? "true" : "false") << '}';
    return os.str();
}

} // namespace perfbench
