/**
 * @file
 * The MiniVM machine: the execution substrate standing in for running
 * real x86 binaries on the paper's Intel Core i7 testbed (for LBR) and
 * under the PIN-based simulator (for LCR).
 *
 * The machine interprets a Program over any number of threads, each
 * pinned to its own core with a private L1-D cache (MESI over a
 * snooping bus) and a private PMU (LBR + performance counters);
 * per-thread LCR rings live in a machine-wide LcrDomain. Every
 * retired taken branch and data access is fed to the monitoring
 * hardware, instrumentation hooks are executed through the simulated
 * kernel driver with their full instruction cost, and failures
 * (segfaults, assertion violations, failure-logging calls, deadlocks,
 * hangs) are detected and profiled exactly as the paper's deployment
 * would.
 */

#ifndef STM_VM_MACHINE_HH
#define STM_VM_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/bus.hh"
#include "hw/bts.hh"
#include "hw/lcr.hh"
#include "hw/pmu.hh"
#include "program/program.hh"
#include "vm/decoded_program.hh"
#include "vm/memory_image.hh"
#include "vm/options.hh"
#include "vm/run_result.hh"
#include "vm/seed_stream.hh"
#include "vm/thread.hh"

namespace stm
{

/** One CBI site visit: what it records if the countdown samples it. */
struct CbiVisit
{
    /** Reading of a hook that sits on a non-Br instruction. */
    static constexpr std::uint8_t kNotABranch = 2;

    SourceBranchId site = 0;
    /** Predicate outcome (0 or 1), or kNotABranch. */
    std::uint8_t reading = 0;
};

/**
 * One run's sampled CBI predicates, shared by Machine::cbiSample and
 * replayCbi: a flat buffer of (false count, true count) indexed by
 * site (sites number a program's branches from 0), added to the
 * RunResult's maps once, when the run ends.
 */
class CbiTally
{
  public:
    /** Count one sampled visit; a kNotABranch reading counts nothing. */
    void
    add(const CbiVisit &visit)
    {
        if (visit.reading == CbiVisit::kNotABranch)
            return;
        if (visit.site >= counts_.size())
            counts_.resize(visit.site + 1);
        ++counts_[visit.site][visit.reading];
    }

    /** Add the counts to @p run's cbiSiteSamples and cbiCounts. */
    void foldInto(RunResult &run);

  private:
    /** Per site: samples that read false, true. */
    std::vector<std::array<std::uint32_t, 2>> counts_;
};

/**
 * A seed-free account of one run under a CBI plan, recorded by
 * Machine::recordCbiVisits: the run without its CBI contribution and
 * every CBI site visit in execution order.
 */
struct CbiTrace
{
    /** The RunResult minus CBI samples and CBI instruction charges. */
    RunResult base;
    std::vector<CbiVisit> visits;
    /** The plan's mean sampling period. */
    double meanPeriod = 0.0;
};

/**
 * The run @p trace came from, replayed under @p seed: CbiCountdown
 * walks the visits from sample to sample on @p seed's stream. Equal
 * to Machine::run() under that seed whenever the recorded run was
 * seedInvariant().
 */
RunResult replayCbi(const CbiTrace &trace, std::uint64_t seed);

/** The simulated machine. One Machine executes one run. */
class Machine
{
  public:
    /**
     * @p plan is the instrumentation plan for this run (see
     * program/transform.hh); null means the empty plan. The Machine
     * reads every hook table and scalar knob from it and never
     * changes @p prog, so one Program can be shared by concurrent
     * runs under different per-phase plans. The Machine keeps the
     * plan alive for the whole run; the predecoded stream it
     * dispatches over owns copies of the hook lists
     * (vm/decoded_program.hh).
     */
    Machine(ProgramPtr prog, MachineOptions opts = {},
            std::shared_ptr<const Instrumentation> plan = nullptr);

    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Execute the program to completion or failure. */
    RunResult run();

    /**
     * Record every CBI site visit of this run as (site, predicate
     * outcome). Call before run(). Recording draws nothing and
     * charges nothing, so run() returns the RunResult it would return
     * unrecorded.
     */
    void recordCbiVisits();

    /**
     * Keep this run's decision path in seedRecord() (RunMemo's
     * recorder). Call before run(). Recording draws nothing and
     * charges nothing.
     */
    void recordSeedPath();

    /** What this run has read from its seed so far. */
    const SeedRecord &seedRecord() const { return rng_.record(); }

    /**
     * After run(): true when the run read its seed only through CBI
     * countdown draws (seedRecord() holds no decision and no other
     * read) and ran a single thread. Several threads keep several
     * countdowns on one stream, which replayCbi does not model, so
     * they report false.
     */
    bool seedInvariant() const;

    /**
     * After a recorded run(): the CbiTrace of @p run, the RunResult
     * that run() returned. Moves the recorded visits out.
     */
    CbiTrace takeCbiTrace(RunResult run);

    // ---- services used by the kernel driver and library models ----

    const Program &program() const { return *prog_; }
    const MachineOptions &options() const { return opts_; }
    /** This run's instrumentation plan (empty when none was given). */
    const Instrumentation &instrumentation() const { return *instr_; }

    Pmu &pmuOf(ThreadId tid);
    LcrDomain &lcrDomain() { return lcr_; }
    Thread &threadRef(ThreadId tid);
    std::uint64_t steps() const { return steps_; }

    /** Charge ring-0 work and retire that many kernel branches. */
    void chargeKernel(ThreadId tid, std::uint64_t instrs,
                      std::uint32_t branches);
    /** Charge user-level work (library bodies). */
    void chargeUser(std::uint64_t instrs);
    /** Charge instrumentation work (tracked separately). */
    void chargeInstrumentation(std::uint64_t instrs);

    /** Append a collected profile to the run result. */
    void appendProfile(ProfileRecord record);

    /**
     * Perform one data access on behalf of @p tid at @p addr,
     * feeding the coherence event to LCR and the performance
     * counters. Returns false (and flags a segfault) if the address
     * is invalid. On success *value_in_out is loaded or stored.
     */
    bool dataAccess(ThreadId tid, Addr pc, Addr addr, bool is_store,
                    Word *value_in_out, bool kernel = false);

    /** Retire a synthetic user-level branch (library bodies). */
    void retireLibraryBranch(ThreadId tid, Addr from_ip, Addr to_ip);

    /** True if @p addr is a mapped data address for @p tid. */
    bool validAddress(ThreadId tid, Addr addr) const;

    /** Raise a segmentation fault at the current instruction. */
    void raiseSegfault(ThreadId tid, const std::string &message);

  private:
    enum class StepStatus : std::uint8_t {
        Continue,     //!< keep running this thread
        SwitchThread, //!< blocked/yielded/quantum: pick another
        RunEnded,     //!< outcome decided
    };

    void initMemoryImage();

    /**
     * Run setup: dispatch, memory image, main thread and the
     * instrumentation inserted at the entry of main.
     */
    void boot();

    /** The scheduler loop: pick quanta and dispatch until an outcome. */
    void schedLoop();

    /** The PBI overflow sampler bound to this Machine. */
    PerfCounter::OverflowHandler pbiSampler();

    /**
     * Acquire this run's predecoded operand stream from the global
     * decode cache (built on first use per (program, hook-tables,
     * fusion) key) and resolve the dispatch mode: token-threaded
     * computed goto where compiled in and selected, the portable
     * switch otherwise. Replaces PR 2's per-run dispatch tables —
     * the flags byte and hook side tables now live inside the shared
     * DecodedProgram.
     */
    void prepareDispatch();

    Thread &spawnThread(std::uint32_t entry_pc, Word arg);

    /**
     * Interpret @p thread until its quantum expires (returns Continue
     * with @p quantum_left at 0), it blocks/yields/preempts
     * (SwitchThread), or the run ends (RunEnded). Thin wrapper that
     * opens the VmQuantum trace span and tail-calls the selected
     * interpreter loop.
     */
    StepStatus runQuantum(Thread &thread, std::uint32_t &quantum_left);

    /**
     * The two interpreter loops. Both are generated from one handler
     * include (vm/interp_loop.inc) so their per-instruction semantics
     * are textually identical: the switch loop is the portable
     * fallback (and the opcode-pair profiling vehicle); the threaded
     * loop replicates the dispatch at every handler tail via computed
     * goto. Bit-identical RunResults by construction, pinned by
     * test_golden_determinism under both modes.
     */
    StepStatus interpretSwitch(Thread &thread,
                               std::uint32_t &quantum_left);
#if STM_HAVE_THREADED_DISPATCH
    StepStatus interpretThreaded(Thread &thread,
                                 std::uint32_t &quantum_left);
#endif

    StepStatus execSync(Thread &thread, const Instruction &inst);
    StepStatus execSyscall(Thread &thread, const Instruction &inst);
    StepStatus execLibCall(Thread &thread, const Instruction &inst);

    /**
     * Deliver one asynchronous interrupt to @p thread: push the
     * hardware frame (pc + registers), drop to CPL0, and run the
     * registered handler to its Iret in a cold side interpreter.
     * Synchronous with respect to the main loop — handler work never
     * touches steps_, the quantum, or the seeded preemption/delivery
     * draw pattern, and a bare-iret handler leaves the RunResult
     * bit-identical to an undelivered run (the contract DESIGN.md §15
     * documents and test_kernel pins). Returns RunEnded if the handler
     * faults, logs a failure, or exhausts its step budget.
     */
    StepStatus serviceInterrupt(Thread &thread);

    /** Step-limit hang: profile whoever runs and end the run. */
    StepStatus stepLimitHang(Thread &thread);

    void runHooks(Thread &thread, const std::vector<Hook> &hooks);
    void cbiSample(Thread &thread, const Hook &hook);

    /**
     * Record one retired taken branch. Inline: called for every taken
     * branch; in the common bare-run case (LBR disabled, BTS off) it
     * reduces to the gate plus one counter bump — building the record
     * is pointless when both sinks would drop it unexamined. Takes the
     * branch metadata as scalars so fused handlers can retire either
     * half of a pair straight from the DecodedOp fields.
     */
    void
    retireTakenBranch(Thread &thread, BranchKind kind, bool kernel,
                      SourceBranchId src_branch, bool outcome,
                      std::uint32_t from_idx, std::uint32_t to_idx)
    {
        Pmu &pmu = *pmus_[thread.id];
        if (pmu.lbr().enabled() || bts_.enabled()) {
            BranchRecord record;
            record.fromIp = layout::codeAddr(from_idx);
            record.toIp = layout::codeAddr(to_idx);
            record.kind = kind;
            record.kernel = kernel;
            record.srcBranch = src_branch;
            record.outcome = outcome;
            pmu.retireBranch(record);
            chargeInstrumentation(bts_.retire(thread.id, record));
        }
        ++result_.stats.branchesRetired;
    }

    void endRun(RunOutcome outcome, ThreadId tid,
                std::uint32_t instr_index, LogSiteId site,
                const std::string &message);
    void profileOnFault(ThreadId tid);

    bool anyOtherRunnable(ThreadId tid) const;
    ThreadId pickNext(ThreadId current) const;

    /** The predicate reading cbiSample would record for @p thread. */
    std::uint8_t cbiReading(const Thread &thread) const;

    ProgramPtr prog_;
    MachineOptions opts_;
    /** This run's instrumentation plan; never null. */
    std::shared_ptr<const Instrumentation> instr_;
    SeedStream rng_;
    /** Visit log armed by recordCbiVisits (null when not recording). */
    std::unique_ptr<std::vector<CbiVisit>> cbiVisits_;
    /** Instructions charged by CBI hooks this run. */
    std::uint64_t cbiCharged_ = 0;

    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<std::unique_ptr<Pmu>> pmus_;
    Bus bus_;
    LcrDomain lcr_;
    BranchTraceStore bts_;

    MemoryImage memory_;
    Addr heapBrk_ = layout::kHeapBase;

    // ---- hot-path dispatch state (resolved once per run) ----
    /** This run's predecoded stream (shared via the decode cache). */
    DecodedProgramPtr decoded_;
    /** decoded_->ops.data(), hoisted for the interpreter loops. */
    const DecodedOp *dops_ = nullptr;
    const Instruction *code_ = nullptr;
    std::uint32_t codeSize_ = 0;
    bool cciEnabled_ = false;
    /** Superinstruction pairs retired this run (each covers 2 steps). */
    std::uint64_t fusedPairs_ = 0;
    /** Dispatch via the computed-goto loop (vs the portable switch). */
    bool useThreaded_ = false;
    /** Interrupt delivery armed (irq.prob > 0 and a handler exists). */
    bool irqOn_ = false;
    /** Interrupts delivered / handler instructions this run (vm stats). */
    std::uint64_t irqDelivered_ = 0;
    std::uint64_t irqHandlerSteps_ = 0;
    /** Main-loop steps retired at CPL0 (sysenter stub bodies). */
    std::uint64_t kernelSteps_ = 0;
    /** Opcode-pair profiling active: switch loop, unfused stream. */
    bool pairProf_ = false;
    /** Local (first, second) opcode histogram when pairProf_. */
    std::unique_ptr<std::uint64_t[]> pairLocal_;
    /** One past the last mapped global byte (fixed at construction). */
    Addr globalsEnd_ = layout::kGlobalBase;
    /** Bytes of the contiguous live-stack span (threads are dense). */
    Addr stackSpan_ = 0;

    /** One simulated futex word's state. */
    struct Mutex
    {
        bool locked = false;
        ThreadId owner = 0;
    };
    std::unordered_map<Addr, Mutex> mutexes_;

    RunResult result_;
    bool ended_ = false;
    std::uint64_t steps_ = 0;
    /** This run's CBI samples, folded into result_ by run(). */
    CbiTally cbiTally_;
};

} // namespace stm

#endif // STM_VM_MACHINE_HH
