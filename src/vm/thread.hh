/**
 * @file
 * A simulated software thread. Each thread is pinned to its own core
 * (core id == thread id), so the per-core LBR and the per-thread LCR
 * ring are both private to the thread — the paper's SMT-sharing
 * caveat (Section 4.2.1) is out of scope here and documented in
 * DESIGN.md.
 */

#ifndef STM_VM_THREAD_HH
#define STM_VM_THREAD_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/types.hh"
#include "vm/seed_stream.hh"

namespace stm
{

/** Scheduler-visible thread states. */
enum class ThreadState : std::uint8_t {
    Ready,
    BlockedOnMutex,
    BlockedOnJoin,
    Done,
};

/** One simulated thread. */
struct Thread
{
    ThreadId id = 0;
    ThreadState state = ThreadState::Ready;
    std::array<Word, kNumRegs> regs{};
    std::uint32_t pc = 0;

    /** Shadow stack of return addresses (call/ret). */
    std::vector<std::uint32_t> callStack;

    /** Valid while BlockedOnMutex. */
    Addr waitMutex = 0;
    /** Valid while BlockedOnJoin. */
    ThreadId joinTarget = 0;

    /** CBI sampling countdown (geometric). */
    CbiCountdown cbiCountdown;
    /** CCI sampling countdown (geometric). */
    std::uint32_t cciCountdown = 0;

    /**
     * Current privilege level: 3 (user) or 0 (kernel). Threads start
     * in ring 3; SysEnter/interrupt delivery drop to ring 0 and
     * SysRet/Iret return to ring 3.
     */
    std::uint8_t cpl = 3;
    /**
     * Return pc saved by SysEnter, consumed by SysRet. One slot is
     * enough: SysEnter faults at CPL0, so stubs cannot nest.
     */
    std::uint32_t sysRetPc = 0;

    bool runnable() const { return state == ThreadState::Ready; }

    Addr stackLow() const { return layout::stackBase(id); }
    Addr stackHigh() const
    {
        return layout::stackBase(id) + layout::kStackSize;
    }
};

} // namespace stm

#endif // STM_VM_THREAD_HH
