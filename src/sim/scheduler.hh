/**
 * @file
 * Deterministic virtual-time thread scheduler.
 *
 * The engine is a conservative sequential parallel-discrete-event
 * simulator: every simulated thread carries its own cycle clock, and
 * the scheduler always executes the globally earliest pending
 * operation, so shared coherence state mutates in correct virtual-time
 * order. Cores are modelled as serially reusable resources with an
 * optional context-switch penalty and a preemption quantum so
 * oversubscribed cores (the noise experiments) time-share fairly.
 */

#ifndef COHERSIM_SIM_SCHEDULER_HH
#define COHERSIM_SIM_SCHEDULER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/memory_backend.hh"
#include "sim/task.hh"
#include "sim/thread.hh"
#include "sim/thread_api.hh"
#include "trace/bus.hh"

namespace csim
{

/** Tunables for the execution engine. */
struct SchedulerParams
{
    /** Cycles charged when a core switches between threads. */
    Tick contextSwitchPenalty = 500;
    /** Max cycles a thread may hold a contested core (~1us at
     *  2.67 GHz, modelling a preemptive scheduler's granularity). */
    Tick quantum = 3'000;
};

/**
 * Owns all simulated threads and drives them in virtual-time order.
 */
class Scheduler
{
  public:
    /**
     * @param backend memory system handling load/store/flush.
     * @param num_cores number of cores in the machine.
     */
    Scheduler(MemoryBackend *backend, int num_cores,
              SchedulerParams params = {});
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Create a simulated thread pinned to a core.
     *
     * @param name debug name.
     * @param core core to pin to (sched_setaffinity equivalent).
     * @param pid owning simulated process.
     * @param body factory invoked with the thread's api to produce
     *             its coroutine.
     * @return non-owning pointer, valid for the scheduler's lifetime.
     */
    SimThread *spawn(const std::string &name, CoreId core,
                     ProcessId pid,
                     std::function<Task(ThreadApi)> body);

    /**
     * Execute pending operations in virtual-time order.
     *
     * Stops when all threads finished, when the global clock passes
     * @p until, or when @p stop_when returns true. The predicate is
     * checked on entry and after every coroutine resume, not after
     * op issues or spinWhile re-arms, which run no simulated code: it
     * may read only state that coroutines write (a thread's
     * `finished` flag, variables set by thread bodies), never the
     * scheduler's clocks.
     *
     * A spinWhile poller alone on its core is parked for as long as
     * its byte holds: its polls are implied, not stepped, and its
     * clock, op count and core are brought up to date when it
     * unparks. The watched byte must therefore be written only by
     * coroutine code (like the predicate's inputs), and other code
     * may read a thread's clock or its core's state only between
     * runs, or from the thread itself. Every return, including an
     * exception, leaves every thread exactly where stepping each
     * poll would have left it. Spawning onto a parked poller's core
     * is allowed from coroutine code.
     */
    void run(Tick until = maxTick,
             const std::function<bool()> &stop_when = {});

    /** Convenience: run until the given thread's coroutine returns. */
    void runUntilFinished(const SimThread *thread,
                          Tick until = maxTick);

    /** Global clock: start time of the most recent operation. */
    Tick now() const { return globalNow_; }

    /** All threads spawned so far. */
    const std::vector<std::unique_ptr<SimThread>> &
    threads() const
    {
        return threads_;
    }

    int numCores() const { return static_cast<int>(cores_.size()); }

    /** True when every spawned thread has completed. */
    bool allFinished() const;

    /**
     * Publish sched.* events into @p bus (the machine-wide trace
     * bus; Machine wires this up). nullptr disables sched tracing.
     */
    void setTraceBus(TraceBus *bus) { trace_ = bus; }

    /** The trace bus this scheduler publishes into, if any. */
    TraceBus *traceBus() const { return trace_; }

  private:
    /**
     * Pick order as one packed integer:
     * `(time << 64) | (resume ? 0 : 1) << 32 | threadId`. The
     * smallest key runs next: earliest time, then resumes before
     * issues, then spawn order.
     */
    using PickKey = unsigned __int128;

    /** Above every key that may run: only an issue at maxTick or an
     *  idle core sorts here, and neither is ever picked. */
    static constexpr PickKey noPick =
        static_cast<PickKey>(maxTick) << 64 | static_cast<PickKey>(1) << 32;

    struct CoreState
    {
        Tick freeAt = 0;          //!< core busy until this tick
        ThreadId lastThread = invalidThread;
        Tick acquiredAt = 0;      //!< when lastThread got the core
        bool mustYield = false;   //!< quantum expired, switch next
        int unfinished = 0;       //!< unfinished threads pinned here
        /** Unfinished threads pinned here, via SimThread::nextOnCore. */
        SimThread *threads = nullptr;
        /** Index of this core's leaf in tree_; 0 while no thread was
         *  ever pinned here. */
        std::size_t leaf = 0;
    };

    /** A spinWhile poller parked alone on its core (see run()). */
    struct Parked
    {
        SimThread *thread;
        /** Parked at its re-arm at this tick: its implied events are
         *  issues at since + jP and resumes at since + (j+1)P, j >= 0,
         *  for its spin of P cycles. */
        Tick since;
    };

    CoreState &coreOf(const SimThread &t)
    {
        return cores_[static_cast<std::size_t>(t.core())];
    }

    /** Earliest tick at which @p t's pending op could start. */
    Tick effectiveStart(const SimThread &t) const;

    /** Panic if the machine idles with a thread still able to run. */
    void checkIdle() const;

    /**
     * Execute the pending op of @p t (memory mutations apply at the
     * op's start time) and arm its resume at the completion time.
     */
    void execute(SimThread &t);

    /** Resume @p t's coroutine at its op's completion time. */
    void resume(SimThread &t);

    /**
     * True when @p t's completed op is a spinWhile whose byte still
     * holds its value; otherwise the watch is over and is cleared.
     */
    static bool
    pollsAgain(SimThread &t)
    {
        if (!t.watch)
            return false;
        if (*t.watch == t.watchValue)
            return true;
        t.watch = nullptr;
        return false;
    }

    /** Arm @p t's spinWhile step again at its completion time. */
    void rearm(SimThread &t);

    /** Re-arm @p t, alone on its core, and take it out of the tree. */
    void park(SimThread &t);

    /**
     * Unpark parked_[@p i] in the state it would have after every
     * implied event whose key is below @p before, put its next event
     * back in the tree and re-derive horizon_.
     */
    void unpark(std::size_t i, PickKey before);

    /** Unpark every parked poller (see unpark()). */
    void unparkAll(PickKey before);

    /** Unpark the pollers whose byte changed (see unpark()). */
    void wake(PickKey before);

    /**
     * Raise the global clock to the last implied event below the
     * running event's key @p before, as stepping would have, for the
     * two places where it may lag that key: a sleep (it starts at its
     * thread's clock) and a switch publish (before the clock moves).
     */
    void foldParked(PickKey before);

    /** First implied event of @p p at or past until_, or noPick. */
    PickKey horizonOf(const Parked &p) const;

    /** Smallest pick key among @p core's threads. */
    PickKey bestOf(const CoreState &core) const;

    /** Re-derive @p core's key and propagate it to the tree root. */
    void refresh(CoreState &core);

    /** Give @p core a leaf and rebuild the tree over all occupied
     *  cores. */
    void occupy(CoreState &core);

    MemoryBackend *backend_;
    SchedulerParams params_;
    std::vector<CoreState> cores_;
    std::vector<std::unique_ptr<SimThread>> threads_;
    /** Cores with at least one pinned thread, in leaf order. */
    std::vector<CoreState *> occupied_;
    /**
     * Min-tree over the occupied cores' keys: leaves at
     * [n, 2n) for n occupied cores, node i = min(2i, 2i+1), root 1.
     * Sized for every core up front so spawn never allocates.
     */
    std::vector<PickKey> tree_;
    /** Parked pollers, at most one per core; empty outside run(). */
    std::vector<Parked> parked_;
    /** Smallest horizonOf() over parked_, at most noPick (also while
     *  none is parked), so run() needs one compare for both. */
    PickKey horizon_ = noPick;
    /** The running run()'s @p until. */
    Tick until_ = maxTick;
    /** Key of the resume run() is running, for a spawn it makes. */
    PickKey lastKey_ = 0;
    Tick globalNow_ = 0;
    TraceBus *trace_ = nullptr;
};

} // namespace csim

#endif // COHERSIM_SIM_SCHEDULER_HH
