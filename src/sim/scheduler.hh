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
     * op issues, which run no simulated code: it may read only
     * state that coroutines write (a thread's `finished` flag,
     * variables set by thread bodies), never the scheduler's clocks.
     */
    void run(Tick until = maxTick,
             const std::function<bool()> &stop_when = {});

    /** Convenience: run until the given thread's coroutine returns. */
    void runUntilFinished(const SimThread *thread,
                          Tick until = maxTick);

    /** Execute exactly one pending operation. @return false if idle. */
    bool stepOne();

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

    /** Earliest tick at which @p t's pending op could start. */
    Tick effectiveStart(const SimThread &t) const;

    /** Pick the next thread to execute, or nullptr if all idle. */
    SimThread *pickNext();

    /**
     * Execute the pending op of @p t (memory mutations apply at the
     * op's start time) and arm its resume at the completion time.
     */
    void execute(SimThread &t);

    /** Resume @p t's coroutine at its op's completion time. */
    void resume(SimThread &t);

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
    Tick globalNow_ = 0;
    TraceBus *trace_ = nullptr;
};

} // namespace csim

#endif // COHERSIM_SIM_SCHEDULER_HH
