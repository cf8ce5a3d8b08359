/**
 * @file
 * The instruction set available to simulated-thread coroutines.
 *
 * ThreadApi is a cheap value handle passed into every thread body.
 * Its methods return awaiters; `co_await api.load(addr)` yields the
 * observed latency in cycles, mirroring an rdtsc-timed load on real
 * hardware.
 */

#ifndef COHERSIM_SIM_THREAD_API_HH
#define COHERSIM_SIM_THREAD_API_HH

#include <bit>
#include <coroutine>
#include <type_traits>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/thread.hh"

namespace csim
{

class Scheduler;
class TraceBus;

/** Awaiter that parks a MemOp on the thread and yields its latency. */
struct OpAwaiter
{
    SimThread *thread;
    MemOp op;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<>) noexcept
    {
        thread->pending = op;
    }
    /** @return latency of the operation in cycles. */
    Tick await_resume() const noexcept { return thread->lastLatency; }
};

/** Awaiter that arms a spinWhile: a spin plus the byte it watches. */
struct SpinWhileAwaiter
{
    SimThread *thread;
    Tick cycles;
    const unsigned char *word;
    unsigned char value;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<>) noexcept
    {
        thread->pending = MemOp{MemOp::Kind::spin, 0, cycles};
        thread->watch = word;
        thread->watchValue = value;
    }
    void await_resume() const noexcept {}
};

/**
 * Per-thread facade over the simulation engine.
 *
 * All members are awaitable except the queries (now(), core(), ...).
 */
class ThreadApi
{
  public:
    ThreadApi() = default;
    ThreadApi(SimThread *thread, Scheduler *sched)
        : thread_(thread), sched_(sched)
    {}

    /** Timed load of the line containing @p addr. */
    OpAwaiter
    load(VAddr addr) const
    {
        return {thread_, MemOp{MemOp::Kind::load, addr, 0}};
    }

    /** Store to the line containing @p addr. */
    OpAwaiter
    store(VAddr addr) const
    {
        return {thread_, MemOp{MemOp::Kind::store, addr, 0}};
    }

    /** clflush the line containing @p addr from every cache. */
    OpAwaiter
    flush(VAddr addr) const
    {
        return {thread_, MemOp{MemOp::Kind::flush, addr, 0}};
    }

    /** Busy-wait for @p cycles cycles. */
    OpAwaiter
    spin(Tick cycles) const
    {
        return {thread_, MemOp{MemOp::Kind::spin, 0, cycles}};
    }

    /** Busy-wait until the thread clock reaches @p tick. */
    OpAwaiter
    spinUntil(Tick tick) const
    {
        return {thread_, MemOp{MemOp::Kind::spinUntil, 0, tick}};
    }

    /**
     * Busy-wait in steps of @p cycles while the byte at @p word holds
     * @p value, checked after each step (so at least one step). The
     * same ops, clocks and trace as
     * `do co_await spin(cycles); while (*word == value);`, but the
     * scheduler checks the byte itself instead of resuming the
     * coroutine, and fast-forwards a thread alone on its core. Only
     * coroutine code may write the byte (see Scheduler::run).
     */
    template <typename T>
    SpinWhileAwaiter
    spinWhile(const T *word, T value, Tick cycles) const
    {
        static_assert(sizeof(T) == 1 && std::is_trivially_copyable_v<T>,
                      "spinWhile watches a single byte");
        fatal_if(cycles == 0, "spinWhile needs a non-zero step");
        return {thread_, cycles,
                reinterpret_cast<const unsigned char *>(word),
                std::bit_cast<unsigned char>(value)};
    }

    /**
     * Block for @p cycles without occupying the core (an I/O wait
     * or nanosleep); other threads pinned to the core may run.
     */
    OpAwaiter
    sleep(Tick cycles) const
    {
        return {thread_, MemOp{MemOp::Kind::sleep, 0, cycles}};
    }

    /** rdtsc equivalent: the thread's current cycle count. */
    Tick now() const { return thread_->now; }

    /** Where the last load/store/flush was serviced from. */
    ServedBy lastServed() const { return thread_->lastServed; }

    ThreadId id() const { return thread_->id(); }
    CoreId core() const { return thread_->core(); }
    /** Covert-channel pair of this thread (0: not part of a pair). */
    std::uint32_t pairTag() const { return thread_->pairTag; }
    SimThread *thread() const { return thread_; }
    Scheduler *scheduler() const { return sched_; }

    /**
     * The machine's trace bus (nullptr when the scheduler is not
     * wired to one). Defined in scheduler.cc: this header only
     * forward-declares Scheduler.
     */
    TraceBus *traceBus() const;

  private:
    SimThread *thread_ = nullptr;
    Scheduler *sched_ = nullptr;
};

} // namespace csim

#endif // COHERSIM_SIM_THREAD_API_HH
