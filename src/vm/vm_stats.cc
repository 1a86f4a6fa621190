#include "vm/vm_stats.hh"

#include <algorithm>
#include <atomic>
#include <mutex>

namespace stm
{

namespace
{

std::mutex &
vmStatsMutex()
{
    static std::mutex mu;
    return mu;
}

std::atomic<bool> pairProfilingEnabled{false};

std::mutex &
pairMutex()
{
    static std::mutex mu;
    return mu;
}

std::uint64_t *
pairTable()
{
    static std::uint64_t table[kOpcodePairTableSize] = {};
    return table;
}

} // namespace

StatGroup &
vmStats()
{
    static StatGroup stats("vm");
    return stats;
}

void
resetVmStats()
{
    std::lock_guard<std::mutex> lock(vmStatsMutex());
    vmStats().reset();
}

namespace
{

/**
 * recordVmRun's counters and gauges, resolved once on the first run
 * (`std::map` nodes are address-stable, and reset() keeps the keys).
 */
struct VmRunStats
{
    Counter &runs, &steps, &wallMicros, &memAccesses, &memFastHits,
        &cacheLookups, &cacheMruHits, &fusedPairs, &irqDelivered,
        &irqHandlerSteps;
    Gauge &stepsPerSec, &mruHitRate, &memFastRate, &superHitRate;

    explicit VmRunStats(StatGroup &g)
        : runs(g.counter("runs")),
          steps(g.counter("steps")),
          wallMicros(g.counter("wall_micros")),
          memAccesses(g.counter("mem_accesses")),
          memFastHits(g.counter("mem_fast_hits")),
          cacheLookups(g.counter("cache_lookups")),
          cacheMruHits(g.counter("cache_mru_hits")),
          fusedPairs(g.counter("fused_pairs")),
          irqDelivered(g.counter("irq_delivered")),
          irqHandlerSteps(g.counter("irq_handler_steps")),
          stepsPerSec(g.gauge("steps_per_sec")),
          mruHitRate(g.gauge("mru_hit_rate")),
          memFastRate(g.gauge("mem_fast_rate")),
          superHitRate(g.gauge("super_hit_rate"))
    {
    }
};

} // namespace

void
recordVmRun(const VmRunSample &sample)
{
    std::lock_guard<std::mutex> lock(vmStatsMutex());
    // Created under the lock on the first run, so vmStats() holds no
    // keys before any run has finished.
    static VmRunStats s(vmStats());
    ++s.runs;
    s.steps += sample.steps;
    s.wallMicros += sample.wallMicros;
    s.memAccesses += sample.memAccesses;
    s.memFastHits += sample.memFastHits;
    s.cacheLookups += sample.cacheLookups;
    s.cacheMruHits += sample.cacheMruHits;
    s.fusedPairs += sample.fusedPairs;
    s.irqDelivered += sample.irqDelivered;
    s.irqHandlerSteps += sample.irqHandlerSteps;

    auto rate = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                              static_cast<double>(den);
    };
    std::uint64_t wall = s.wallMicros.value();
    s.stepsPerSec.set(wall == 0
                          ? 0.0
                          : static_cast<double>(s.steps.value()) * 1e6 /
                                static_cast<double>(wall));
    s.mruHitRate.set(rate(s.cacheMruHits.value(), s.cacheLookups.value()));
    s.memFastRate.set(rate(s.memFastHits.value(), s.memAccesses.value()));
    s.superHitRate.set(rate(2 * s.fusedPairs.value(), s.steps.value()));
}

void
setOpcodePairProfiling(bool enabled)
{
    pairProfilingEnabled.store(enabled, std::memory_order_relaxed);
}

bool
opcodePairProfilingEnabled()
{
    return pairProfilingEnabled.load(std::memory_order_relaxed);
}

void
accumulateOpcodePairs(const std::uint64_t *table)
{
    std::lock_guard<std::mutex> lock(pairMutex());
    std::uint64_t *global = pairTable();
    for (std::size_t i = 0; i < kOpcodePairTableSize; ++i)
        global[i] += table[i];
}

std::vector<OpcodePairCount>
opcodePairHistogram(std::size_t top_n)
{
    std::vector<OpcodePairCount> rows;
    {
        std::lock_guard<std::mutex> lock(pairMutex());
        const std::uint64_t *global = pairTable();
        for (std::size_t i = 0; i < kOpcodePairTableSize; ++i) {
            if (global[i] == 0)
                continue;
            OpcodePairCount row;
            row.first = static_cast<Opcode>(i / kOpcodeCount);
            row.second = static_cast<Opcode>(i % kOpcodeCount);
            row.count = global[i];
            rows.push_back(row);
        }
    }
    std::sort(rows.begin(), rows.end(),
              [](const OpcodePairCount &a, const OpcodePairCount &b) {
                  return a.count > b.count;
              });
    if (top_n > 0 && rows.size() > top_n)
        rows.resize(top_n);
    return rows;
}

void
resetOpcodePairHistogram()
{
    std::lock_guard<std::mutex> lock(pairMutex());
    std::uint64_t *global = pairTable();
    for (std::size_t i = 0; i < kOpcodePairTableSize; ++i)
        global[i] = 0;
}

} // namespace stm
