/**
 * @file
 * The `fleet` workload: the collection service with no VM work.
 *
 * Set-up captures real LBR (sort) and LCR (mozilla-js3) profiles from
 * corpus runs and encodes them once into a fixed stream of wire
 * frames: every unique frame comes from a distinct machine, and the
 * transport faults are the ones stm_collector injects by default
 * (FleetOptions corruptEvery 5, duplicateEvery 3, applied as
 * fleet_sim's transport does): every fifth frame sent is a corrupted
 * copy followed by the intact frame, every third is an immediate
 * re-send. One round sends the whole stream through a fresh Collector
 * into one IncrementalRanker per bug; one operation is one batch of
 * frames.
 *
 * The timed part has two phases:
 *  - an open loop of kOpenRounds rounds: two producers ingest batches
 *    on a fixed schedule at kOfferedFramesPerSecond while one drain
 *    thread feeds the rankers and rescores. A batch's latency runs
 *    from when it was due to the rescore that covers its last
 *    accepted frame (percentiles by windowedQuantile over rounds).
 *    The producers' lateness against the schedule is reported too;
 *  - a closed loop: whole rounds as fast as the service takes them,
 *    each ending with a RankerSnapshot encode/decode round trip.
 *    Its median round time is pass_s, i.e. the capacity.
 *
 * Every round checks each frame's ingest status against its kind,
 * the collector's counts against the generated mix, and each final
 * ranking (live and after the snapshot round trip) against a batch
 * StatisticalRanker over the accepted reports.
 */

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.hh"
#include "corpus/registry.hh"
#include "diag/ranker.hh"
#include "fleet/collector.hh"
#include "fleet/durable/snapshot.hh"
#include "fleet/fleet_sim.hh"
#include "fleet/incremental_ranker.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kUniqueFrames = 8192;
/**
 * Batches per round: about 1700 frames and 3 ms of work each. With
 * 32 batches of 0.7 ms the millisecond stalls of a busy host moved
 * the latency p90 by 30% or more between runs.
 */
constexpr std::size_t kBatches = 8;
constexpr std::size_t kUniquePerBatch = kUniqueFrames / kBatches;
static_assert(kUniqueFrames % kBatches == 0);
constexpr unsigned kProducers = 2;

/** stm_collector's default transport faults (see FleetOptions). */
constexpr std::uint64_t kCorruptEvery = 5;
constexpr std::uint64_t kDuplicateEvery = 3;

/**
 * Obs ring of a traced round's drain thread: it holds the round's
 * drain and rescore spans (tens of thousands of events). Each round
 * starts a new drain thread, whose ring outlives it, so traced
 * rounds are also capped at kMaxTracedRounds per run.
 */
constexpr std::size_t kDrainRingEvents = std::size_t{1} << 17;
constexpr std::size_t kMaxTracedRounds = 10;

/**
 * Offered load of the open loop: about 30% of the closed loop's
 * capacity on a quiet 4-vCPU host (about 340000 frames/s), so the
 * loop stays well below saturation when a shared host runs the
 * service two times slower and the latency tail measures the service,
 * not a queue on the edge of overload.
 */
constexpr double kOfferedFramesPerSecond = 100000.0;

/**
 * Pacing of the open loop. A producer sleeps until kProducerSpin
 * before a batch is due and then spins, because the host's wake-up
 * delays reach milliseconds: with a 100 us spin one batch in ten
 * started late and the latency p90 sat on that tail. The drain
 * thread sleeps kDrainIdleSleep when it finds nothing to drain.
 */
constexpr std::chrono::microseconds kProducerSpin{1000};
constexpr std::chrono::microseconds kDrainIdleSleep{20};

/**
 * Rounds of the open loop, the same in every run whatever --seconds
 * and --trace say (about 15 s at the offered rate).
 */
constexpr std::size_t kOpenRounds = 108;

const char *const kBugIds[] = {"sort", "mozilla-js3"};
constexpr std::size_t kBugCount = 2;

enum class FrameKind : std::uint8_t { Unique, Duplicate, Corrupt };

struct Stream
{
    std::vector<std::vector<std::uint8_t>> frames; //!< send order
    std::vector<FrameKind> kinds;
    /** First frame of each batch, and frames.size() at the end. */
    std::vector<std::size_t> batchStart;
    std::uint64_t duplicates = 0, corrupt = 0;
    bool absence[kBugCount] = {false, true};
    std::vector<stm::RankedEvent> expected[kBugCount];
    stm::fleet::RankerSnapshot::ReportMap reports[kBugCount];
};

stm::BugSpec
findBug(const std::string &id)
{
    for (auto &bug : stm::corpus::allBugs())
        if (bug.id == id)
            return bug;
    throw std::runtime_error("no corpus bug " + id);
}

Stream
buildStream(std::uint64_t seed)
{
    std::vector<stm::fleet::RunProfile> pools[kBugCount];
    for (std::size_t b = 0; b < kBugCount; ++b) {
        stm::BugSpec bug = findBug(kBugIds[b]);
        stm::fleet::FleetOptions opts;
        opts.kind = bug.isConcurrent ? stm::ProfileKind::Lcr
                                     : stm::ProfileKind::Lbr;
        opts.absencePredicates = bug.isConcurrent;
        stm::fleet::FleetCapture cap =
            stm::fleet::captureFleetReports(bug, opts);
        if (!cap.pinned || cap.reports.empty())
            throw std::runtime_error(std::string("no reports for ") +
                                     kBugIds[b]);
        pools[b] = std::move(cap.reports);
    }

    // A batch holds whole send groups (a corrupted copy, the frame,
    // its re-send), so every re-send follows its original on the
    // same producer.
    std::uint64_t rng = seed;
    Stream s;
    stm::StatisticalRanker rankers[kBugCount];
    std::uint64_t serial = 0, sent = 0;
    auto push = [&](std::vector<std::uint8_t> frame, FrameKind kind) {
        s.frames.push_back(std::move(frame));
        s.kinds.push_back(kind);
    };
    for (std::size_t batch = 0; batch < kBatches; ++batch) {
        s.batchStart.push_back(s.frames.size());
        for (std::size_t i = 0; i < kUniquePerBatch; ++i) {
            std::size_t b = nextRandom(rng) % kBugCount;
            stm::fleet::RunProfile profile =
                pools[b][nextRandom(rng) % pools[b].size()];
            profile.machineId = ++serial;
            profile.runSeed = batch;
            std::vector<std::uint8_t> frame =
                stm::fleet::serialize(profile);

            std::set<stm::EventKey> events =
                profile.kind == stm::ProfileKind::Lbr
                    ? stm::eventsOfLbr(profile.lbr)
                    : stm::eventsOfLcr(profile.lcr);
            if (profile.failure)
                rankers[b].addFailureProfile(events);
            else
                rankers[b].addSuccessProfile(events);
            stm::fleet::RunProfileView view;
            stm::fleet::decodeFrameView(frame.data(), frame.size(),
                                        &view);
            s.reports[b][stm::fleet::fingerprintPayload(
                view.payload(), view.payloadSize())] =
                stm::fleet::digestOfView(view);

            ++sent;
            if (sent % kCorruptEvery == 0) {
                std::vector<std::uint8_t> damaged = frame;
                damaged[damaged.size() / 2] ^= 0x40;
                push(std::move(damaged), FrameKind::Corrupt);
                ++s.corrupt;
                ++sent;
            }
            push(frame, FrameKind::Unique);
            if (sent % kDuplicateEvery == 0) {
                push(frame, FrameKind::Duplicate);
                ++s.duplicates;
                ++sent;
            }
        }
    }
    s.batchStart.push_back(s.frames.size());
    for (std::size_t b = 0; b < kBugCount; ++b)
        s.expected[b] = rankers[b].rank(s.absence[b]);
    return s;
}

bool
sameRanking(const std::vector<stm::RankedEvent> &a,
            const std::vector<stm::RankedEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].event == b[i].event) || a[i].absence != b[i].absence ||
            a[i].failureRuns != b[i].failureRuns ||
            a[i].successRuns != b[i].successRuns ||
            a[i].score != b[i].score)
            return false;
    }
    return true;
}

std::size_t
bugIndex(std::string_view id)
{
    for (std::size_t b = 0; b < kBugCount; ++b)
        if (id == kBugIds[b])
            return b;
    return kBugCount;
}

/**
 * The CPU every producer and drain thread runs on: the last one this
 * process may use, or -1 to let them float. Floating, they ran
 * sometimes packed on one CPU and sometimes spread over several,
 * switching from minute to minute on a shared 4-vCPU host: open-loop
 * latency p50 0.72 or 0.45 ms, closed-loop rounds 0.038 or 0.028 s.
 * Pinned to one CPU each, and spinning while they waited, they kept
 * the p50 at 0.43 ms, but the latency p90 of some runs rose from 0.5
 * to 4-8 ms.
 */
int
threadCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return -1;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c)
        if (CPU_ISSET(c, &set))
            return c;
    return -1;
}

/** Pin the calling thread to @p cpu (-1: leave it floating). */
void
pinTo(int cpu)
{
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/** What one phase (a run of whole rounds) measured. */
struct Phase
{
    /** Open loop only: each round's batch latencies. */
    std::vector<std::vector<double>> latencyMs;
    std::vector<double> lateMs;    //!< open loop only
    std::vector<double> roundSeconds;
    double seconds = 0; //!< wall time of the whole phase
    double ingestMs = 0, drainMs = 0, rescoreMs = 0, snapshotMs = 0;
    double accepted = 0, duplicates = 0, decodeErrors = 0, blocked = 0,
           highWater = 0;
    std::uint64_t batches = 0;
    std::vector<std::string> failures;
    /** Sum of the drain thread's timed calls (ns). */
    std::int64_t callNs = 0;
};

/** One drain-thread call, for the traced accounting. */
struct DrainCall
{
    bool rescore = false;
    std::int64_t ns = 0;
    std::size_t op = 0; //!< drain iteration the call belongs to
};

/**
 * Send @p rounds rounds of the stream. @p rate > 0 paces the
 * producers (open loop); 0 saturates (closed loop, where each round
 * also ends with the snapshot round trip). With @p acct, the drain
 * thread's iterations are accounted as operations.
 */
Phase
runRounds(const Stream &s, std::size_t rounds, double rate,
          Accounting *acct)
{
    Phase phase;
    phase.latencyMs.resize(rounds);
    const int cpu = threadCpu();
    std::mutex liveMu;
    std::map<std::size_t, std::shared_ptr<stm::fleet::Collector>> live;
    auto collectorFor = [&](std::size_t round) {
        std::lock_guard<std::mutex> lock(liveMu);
        auto &slot = live[round];
        if (!slot)
            slot = std::make_shared<stm::fleet::Collector>();
        return slot;
    };
    std::vector<std::atomic<std::uint32_t>> ingested(rounds);
    std::vector<std::atomic<bool>> badBatch(rounds * kBatches);
    std::atomic<bool> drainReady{false};
    std::atomic<bool> abort{false};
    Clock::time_point origin;
    const std::size_t frames = s.frames.size();
    auto due = [&](std::size_t r, std::size_t local) {
        std::size_t before = r * frames + s.batchStart[local];
        return origin + std::chrono::nanoseconds(static_cast<std::int64_t>(
                            static_cast<double>(before) / rate * 1e9));
    };

    // Written by the drain thread only; read after it is joined.
    std::vector<DrainCall> calls;
    auto drain = [&] {
        pinTo(cpu);
        if (acct)
            acct->claimThread(kDrainRingEvents);
        drainReady.store(true, std::memory_order_release);
        std::size_t op = 0;
        for (std::size_t r = 0; r < rounds && !abort; ++r) {
            Clock::time_point roundStart = Clock::now();
            auto collector = collectorFor(r);
            stm::fleet::IncrementalRanker rankers[kBugCount];
            bool dirty[kBugCount] = {};
            std::vector<std::uint32_t> got(kBatches, 0);
            std::vector<std::size_t> complete;
            std::size_t accepted = 0;
            bool foreign = false;
            while (!abort) {
                Clock::time_point t0 = Clock::now();
                std::size_t n = collector->drainViews(
                    [&](const stm::fleet::RunProfileView &v) {
                        std::size_t b = bugIndex(v.bugId());
                        if (b == kBugCount || v.runSeed() >= kBatches) {
                            foreign = true;
                            return;
                        }
                        rankers[b].ingest(v);
                        dirty[b] = true;
                        if (++got[v.runSeed()] == kUniquePerBatch)
                            complete.push_back(v.runSeed());
                    });
                Clock::time_point t1 = Clock::now();
                phase.drainMs += msBetween(t0, t1);
                phase.callNs += nanosBetween(t0, t1);
                if (acct)
                    calls.push_back({false, nanosBetween(t0, t1), op});
                for (std::size_t b = 0; b < kBugCount; ++b) {
                    if (!dirty[b])
                        continue;
                    Clock::time_point r0 = Clock::now();
                    rankers[b].rank(s.absence[b]);
                    Clock::time_point r1 = Clock::now();
                    phase.rescoreMs += msBetween(r0, r1);
                    phase.callNs += nanosBetween(r0, r1);
                    if (acct)
                        calls.push_back({true, nanosBetween(r0, r1), op});
                    dirty[b] = false;
                }
                ++op;
                if (rate > 0) {
                    Clock::time_point covered = Clock::now();
                    for (std::size_t local : complete)
                        phase.latencyMs[r].push_back(
                            msBetween(due(r, local), covered));
                }
                complete.clear();
                accepted += n;
                if (accepted >= kUniqueFrames &&
                    ingested[r].load(std::memory_order_acquire) ==
                        kBatches)
                    break;
                // Idle: wait as a service would, rather than spin on
                // the CPU the producers need.
                if (n == 0)
                    std::this_thread::sleep_for(kDrainIdleSleep);
            }
            if (abort)
                break;
            std::string why;
            if (foreign)
                why = "drained a frame of no batch";
            for (std::size_t b = 0; b < kBugCount; ++b)
                if (!sameRanking(rankers[b].rank(s.absence[b]),
                                 s.expected[b]))
                    why = std::string("live ranking of ") + kBugIds[b] +
                          " differs from the batch ranker";
            if (rate <= 0) {
                Clock::time_point s0 = Clock::now();
                for (std::size_t b = 0; b < kBugCount; ++b) {
                    stm::fleet::RankerSnapshot snap(1, r, s.reports[b]);
                    std::vector<std::uint8_t> bytes = snap.serialize();
                    stm::fleet::RankerSnapshot back;
                    if (stm::fleet::RankerSnapshot::deserialize(
                            bytes, &back) !=
                            stm::fleet::SnapStatus::Ok ||
                        !sameRanking(back.rank(s.absence[b]),
                                     rankers[b].rank(s.absence[b])))
                        why = std::string("snapshot round trip of ") +
                              kBugIds[b] + " changed the ranking";
                }
                phase.snapshotMs += msBetween(s0, Clock::now());
            }
            const stm::StatGroup &st = collector->stats();
            phase.accepted += static_cast<double>(st.value("accepted"));
            phase.duplicates +=
                static_cast<double>(st.value("duplicates"));
            phase.decodeErrors +=
                static_cast<double>(st.value("decode_errors"));
            phase.blocked += static_cast<double>(st.value("blocked"));
            phase.highWater = std::max(
                phase.highWater, st.gaugeValue("queue_high_water"));
            if (st.value("accepted") != kUniqueFrames ||
                st.value("duplicates") != s.duplicates ||
                st.value("decode_errors") != s.corrupt)
                why = "collector counts differ from the generated mix";
            phase.roundSeconds.push_back(
                static_cast<double>(
                    nanosBetween(roundStart, Clock::now())) /
                1e9);
            if (!why.empty())
                phase.failures.push_back("round " + std::to_string(r) +
                                         ": " + why);
            std::lock_guard<std::mutex> liveLock(liveMu);
            live.erase(r);
        }
    };

    std::vector<double> late[kProducers];
    double ingestMs[kProducers] = {};
    auto produce = [&](unsigned p) {
        pinTo(cpu);
        for (std::size_t k = p; k < rounds * kBatches && !abort;
             k += kProducers) {
            std::size_t r = k / kBatches, local = k % kBatches;
            if (rate > 0) {
                Clock::time_point when = due(r, local);
                std::this_thread::sleep_until(when - kProducerSpin);
                while (Clock::now() < when)
                    std::this_thread::yield();
            }
            Clock::time_point t0 = Clock::now();
            if (rate > 0)
                late[p].push_back(msBetween(due(r, local), t0));
            auto collector = collectorFor(r);
            for (std::size_t f = s.batchStart[local];
                 f < s.batchStart[local + 1]; ++f) {
                stm::fleet::IngestStatus st =
                    collector->ingest(s.frames[f]);
                stm::fleet::IngestStatus want =
                    s.kinds[f] == FrameKind::Unique
                        ? stm::fleet::IngestStatus::Accepted
                    : s.kinds[f] == FrameKind::Duplicate
                        ? stm::fleet::IngestStatus::Duplicate
                        : stm::fleet::IngestStatus::DecodeError;
                if (st != want)
                    badBatch[k] = true;
            }
            ingestMs[p] += msBetween(t0, Clock::now());
            ingested[r].fetch_add(1, std::memory_order_release);
        }
    };

    Clock::time_point phaseStart = Clock::now();
    std::thread drainThread;
    std::vector<std::thread> producers;
    try {
        drainThread = std::thread(drain);
        while (!drainReady.load(std::memory_order_acquire))
            std::this_thread::yield();
        origin = Clock::now() + std::chrono::milliseconds(1);
        for (unsigned p = 0; p < kProducers; ++p)
            producers.emplace_back(produce, p);
    } catch (...) {
        abort = true;
        for (auto &t : producers)
            t.join();
        if (drainThread.joinable())
            drainThread.join();
        throw;
    }
    for (auto &t : producers)
        t.join();
    drainThread.join();
    phase.seconds =
        static_cast<double>(nanosBetween(phaseStart, Clock::now())) / 1e9;

    for (unsigned p = 0; p < kProducers; ++p) {
        phase.lateMs.insert(phase.lateMs.end(), late[p].begin(),
                            late[p].end());
        phase.ingestMs += ingestMs[p];
    }
    phase.batches = rounds * kBatches;
    for (std::size_t k = 0; k < rounds * kBatches; ++k)
        if (badBatch[k])
            phase.failures.push_back("batch " + std::to_string(k) +
                                     ": unexpected ingest status");

    if (acct) {
        // Each drain-thread call recorded exactly one top-level obs
        // span (FleetDrain or FleetRescore), in call order.
        std::vector<stm::obs::TraceEvent> events = acct->takeEvents();
        std::size_t e = 0;
        std::size_t c = 0;
        while (c < calls.size()) {
            std::size_t op = calls[c].op;
            std::int64_t opNs = 0;
            acct->beginOp();
            for (; c < calls.size() && calls[c].op == op; ++c) {
                std::vector<stm::obs::TraceEvent> span;
                int depth = 0;
                for (; e < events.size(); ++e) {
                    if (events[e].phase == stm::obs::TracePhase::Instant)
                        continue;
                    span.push_back(events[e]);
                    depth += events[e].phase ==
                                     stm::obs::TracePhase::Begin
                                 ? 1
                                 : -1;
                    if (depth == 0) {
                        ++e;
                        break;
                    }
                }
                stm::obs::TraceId want =
                    calls[c].rescore ? stm::obs::TraceId::FleetRescore
                                     : stm::obs::TraceId::FleetDrain;
                if (span.empty() || span.front().id != want)
                    phase.failures.push_back(
                        "drain op " + std::to_string(op) +
                        ": obs spans out of step with the calls");
                acct->call("fleet", calls[c].ns, span);
                opNs += calls[c].ns;
            }
            std::string why;
            if (!acct->endOp(opNs, &why))
                phase.failures.push_back("drain op " +
                                         std::to_string(op) + ": " + why);
        }
    }
    return phase;
}

void
foldPhase(PassMetrics &m, const Phase &ph)
{
    m.add("fleet.ingest_ms", ph.ingestMs);
    m.add("fleet.drain_ms", ph.drainMs);
    m.add("fleet.rescore_ms", ph.rescoreMs);
    m.add("fleet.snapshot_ms", ph.snapshotMs);
    m.add("fleet.blocked", ph.blocked);
    m.add("fleet.queue_high_water", ph.highWater);
    m.add("fleet.accepted", ph.accepted);
    m.add("fleet.duplicates", ph.duplicates);
    m.add("fleet.decode_errors", ph.decodeErrors);
    m.add("hw.profiles", ph.accepted);
}

void
countPhase(Result &result, const Phase &ph)
{
    result.attempt(ph.batches);
    for (const std::string &why : ph.failures)
        result.fail(why);
}

} // namespace

void
runFleet(const Args &args, Result &result)
{
    Stream stream;
    Setup setup([&] { stream = buildStream(args.seed); });
    // Set-up runs the VM to capture profiles; the timed phases must
    // not.
    double vmMachines = 0;
    auto timed = [&](auto &&phase) {
        Counters before = Counters::now();
        Phase ph = phase();
        vmMachines += (Counters::now() - before).machines;
        return ph;
    };

    Clock::time_point start = Clock::now();
    Phase open = timed([&] {
        return runRounds(stream, kOpenRounds, kOfferedFramesPerSecond,
                         nullptr);
    });
    countPhase(result, open);

    // Closed loop: one round per pass, at least three (per side in
    // trace mode), until the run's time is up.
    PassMetrics plain, traced;
    Accounting acct;
    std::vector<double> passSeconds, plainCallNs, tracedCallNs;
    constexpr std::size_t kMinPasses = 3;
    for (std::size_t pass = 0;
         pass < (args.trace ? 2 * kMinPasses : kMinPasses) ||
         nanosBetween(start, Clock::now()) < args.seconds * 1e9;
         ++pass) {
        bool tracedPass = args.trace && pass % 2 == 1 &&
                          traced.passes() < kMaxTracedRounds;
        if (tracedPass)
            setTracing(true);
        Phase closed = timed([&] {
            return runRounds(stream, 1, 0.0,
                             tracedPass ? &acct : nullptr);
        });
        if (tracedPass)
            setTracing(false);
        countPhase(result, closed);
        PassMetrics &m = tracedPass ? traced : plain;
        foldPhase(m, closed);
        m.endPass();
        (tracedPass ? tracedCallNs : plainCallNs)
            .push_back(static_cast<double>(closed.callNs));
        if (!tracedPass)
            passSeconds.push_back(closed.roundSeconds.front());
        double elapsed =
            static_cast<double>(nanosBetween(start, Clock::now())) / 1e9;
        setup.maybeRepeat((elapsed - open.seconds) /
                          std::max(args.seconds - open.seconds, 1.0));
    }
    setup.report(result);
    if (vmMachines != 0)
        result.invalidate("the fleet workload ran the VM");

    if (!args.trace) {
        result.set("pass_s", median(passSeconds));
        result.set("latency_p50_ms", windowedQuantile(open.latencyMs, 0.5));
        result.set("latency_p90_ms", windowedQuantile(open.latencyMs, 0.9));
        return;
    }
    plain.report(result);
    for (const char *name :
         {"fleet.accepted", "fleet.duplicates", "fleet.decode_errors"})
        plain.requireConstant(result, name);
    result.set("fleet.generator_late_p90_ms", quantile(open.lateMs, 0.9));
    reportAccounting(result, acct, traced.passes());
    result.set("obs.trace_overhead_frac",
               median(tracedCallNs) / median(plainCallNs) - 1.0);
}

} // namespace perfbench
