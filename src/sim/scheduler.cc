#include "sim/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csim
{

namespace
{

/** Above every key that may run: only an issue at maxTick or an idle
 *  core sorts here, and neither is ever picked. */
constexpr unsigned __int128 noPick =
    static_cast<unsigned __int128>(maxTick) << 64 |
    static_cast<unsigned __int128>(1) << 32;

unsigned __int128
pickKey(Tick time, bool is_resume, ThreadId tid)
{
    return static_cast<unsigned __int128>(time) << 64 |
           static_cast<unsigned __int128>(is_resume ? 0 : 1) << 32 |
           static_cast<std::uint32_t>(tid);
}

} // namespace

Scheduler::Scheduler(MemoryBackend *backend, int num_cores,
                     SchedulerParams params)
    : backend_(backend), params_(params)
{
    fatal_if(num_cores <= 0, "scheduler needs at least one core");
    fatal_if(!backend, "scheduler needs a memory backend");
    cores_.resize(static_cast<std::size_t>(num_cores));
    occupied_.reserve(cores_.size());
    tree_.assign(2 * cores_.size(), ~PickKey{0});
}

Scheduler::~Scheduler() = default;

SimThread *
Scheduler::spawn(const std::string &name, CoreId core, ProcessId pid,
                 std::function<Task(ThreadApi)> body)
{
    fatal_if(core < 0 || core >= numCores(),
             "thread ", name, " pinned to invalid core ", core);
    const auto tid = static_cast<ThreadId>(threads_.size());
    auto thread = std::make_unique<SimThread>(tid, name, core, pid);
    // Threads spawned mid-simulation start at the current global time.
    thread->now = globalNow_;
    ThreadApi api(thread.get(), this);
    thread->installBody(std::move(body), api);
    threads_.push_back(std::move(thread));

    SimThread *t = threads_.back().get();
    auto &cs = cores_[static_cast<std::size_t>(core)];
    t->nextOnCore = cs.threads;
    cs.threads = t;
    ++cs.unfinished;
    if (cs.leaf == 0)
        occupy(cs);
    else
        refresh(cs);
    return t;
}

bool
Scheduler::allFinished() const
{
    return std::all_of(threads_.begin(), threads_.end(),
                       [](const auto &t) { return t->finished; });
}

Tick
Scheduler::effectiveStart(const SimThread &t) const
{
    const auto &core = cores_[static_cast<std::size_t>(t.core())];
    Tick start = std::max(t.now, core.freeAt);
    if (core.lastThread != t.id() &&
        core.lastThread != invalidThread) {
        start += params_.contextSwitchPenalty;
    }
    return start;
}

Scheduler::PickKey
Scheduler::bestOf(const CoreState &core) const
{
    // Two event kinds compete: coroutine resumes (at an op's
    // completion time) and op issues (at an op's start time).
    // Resumes run first at equal times so shared state written by a
    // coroutine at virtual time T is visible to every operation
    // issued at or after T. A thread whose quantum expired sits out
    // while another thread pinned here is unfinished.
    PickKey best = ~PickKey{0};
    for (const SimThread *t = core.threads; t; t = t->nextOnCore) {
        if (t->resumePending) {
            best = std::min(best, pickKey(t->now, true, t->id()));
        } else if (t->pending.kind != MemOp::Kind::none &&
                   !(core.mustYield && core.lastThread == t->id() &&
                     core.unfinished > 1)) {
            best = std::min(best,
                            pickKey(effectiveStart(*t), false, t->id()));
        }
    }
    return best;
}

void
Scheduler::refresh(CoreState &core)
{
    // Every input to a thread's key is the thread's own state or its
    // core's, so a step changes only the stepped core's leaf. Carry
    // the running min up the path and load only the siblings.
    std::size_t i = core.leaf;
    PickKey key = bestOf(core);
    tree_[i] = key;
    for (; i > 1; i >>= 1) {
        key = std::min(key, tree_[i ^ 1]);
        tree_[i >> 1] = key;
    }
}

void
Scheduler::occupy(CoreState &core)
{
    occupied_.push_back(&core);
    const std::size_t n = occupied_.size();
    for (std::size_t k = 0; k < n; ++k) {
        occupied_[k]->leaf = n + k;
        tree_[n + k] = bestOf(*occupied_[k]);
    }
    for (std::size_t i = n - 1; i >= 1; --i)
        tree_[i] = std::min(tree_[2 * i], tree_[2 * i + 1]);
}

SimThread *
Scheduler::pickNext()
{
    const PickKey root = tree_[1];
    if (root < noPick)
        return threads_[static_cast<std::uint32_t>(root)].get();
    // A thread sits out its expired quantum only while another
    // unfinished thread is pinned to its core. That thread is a
    // resume or issue candidate itself and is never the one sitting
    // out, so a yield can never leave every core idle.
    for (const CoreState *core : occupied_) {
        panic_if(core->mustYield && core->unfinished > 1 &&
                     core->lastThread != invalidThread &&
                     !threads_[static_cast<std::size_t>(
                                   core->lastThread)]
                          ->finished,
                 "scheduler idle while a yielding thread waits");
    }
    return nullptr;
}

void
Scheduler::resume(SimThread &t)
{
    globalNow_ = std::max(globalNow_, t.now);
    t.resumePending = false;
    panic_if(!t.current, "thread ", t.name(),
             " has no coroutine frame to resume");
    t.current.resume();

    auto &core = cores_[static_cast<std::size_t>(t.core())];
    if (t.finished) {
        SimThread **link = &core.threads;
        while (*link != &t)
            link = &(*link)->nextOnCore;
        *link = t.nextOnCore;
        t.nextOnCore = nullptr;
        --core.unfinished;
        refresh(core);
        auto h = t.program().handle();
        if (h && h.promise().exception)
            std::rethrow_exception(h.promise().exception);
    } else {
        panic_if(t.pending.kind == MemOp::Kind::none,
                 "thread ", t.name(),
                 " suspended without a pending operation");
        refresh(core);
    }
}

void
Scheduler::execute(SimThread &t)
{
    auto &core = cores_[static_cast<std::size_t>(t.core())];
    if (t.pending.kind == MemOp::Kind::sleep) {
        // Sleeping releases the core: no occupancy, no switch cost.
        const Tick start = t.now;
        globalNow_ = std::max(globalNow_, start);
        t.lastLatency = t.pending.cycles;
        t.now = start + t.pending.cycles;
        t.pending = MemOp{};
        ++t.opsExecuted;
        if (core.lastThread == t.id())
            core.lastThread = invalidThread;
        t.resumePending = true;
        if (trace_ && trace_->enabled<TraceCategory::sched>()) {
            trace_->publish(TraceEvent{
                TraceEventType::schedSleep, TraceCategory::sched,
                t.core(), start, 0,
                static_cast<std::uint64_t>(t.id()), t.lastLatency});
        }
        refresh(core);
        return;
    }
    const Tick start = effectiveStart(t);
    if (core.lastThread != t.id()) {
        if (core.lastThread != invalidThread && trace_ &&
            trace_->enabled<TraceCategory::sched>()) {
            trace_->publish(TraceEvent{
                TraceEventType::schedSwitch, TraceCategory::sched,
                t.core(), start, 0,
                static_cast<std::uint64_t>(core.lastThread),
                static_cast<std::uint64_t>(t.id())});
        }
        core.lastThread = t.id();
        core.acquiredAt = start;
        core.mustYield = false;
    }

    const MemOp op = t.pending;
    t.pending = MemOp{};
    globalNow_ = std::max(globalNow_, start);

    AccessResult res;
    switch (op.kind) {
      case MemOp::Kind::load:
        res = backend_->load(t.id(), t.core(), op.addr, start);
        break;
      case MemOp::Kind::store:
        res = backend_->store(t.id(), t.core(), op.addr, start);
        break;
      case MemOp::Kind::flush:
        res = backend_->flush(t.id(), t.core(), op.addr, start);
        break;
      case MemOp::Kind::spin:
        res.latency = op.cycles;
        break;
      case MemOp::Kind::spinUntil:
        res.latency = op.cycles > start ? op.cycles - start : 0;
        break;
      case MemOp::Kind::sleep:
        panic("sleep handled before core accounting");
      case MemOp::Kind::none:
        panic("executing thread ", t.name(), " with no pending op");
    }

    t.lastLatency = res.latency;
    if (op.kind == MemOp::Kind::load ||
        op.kind == MemOp::Kind::store ||
        op.kind == MemOp::Kind::flush) {
        t.lastServed = res.servedBy;
    }
    t.now = start + res.latency;
    ++t.opsExecuted;
    core.freeAt = t.now;
    if (t.now - core.acquiredAt > params_.quantum &&
        core.unfinished > 1) {
        core.mustYield = true;
        if (trace_ && trace_->enabled<TraceCategory::sched>()) {
            trace_->publish(TraceEvent{
                TraceEventType::schedPreempt, TraceCategory::sched,
                t.core(), t.now, 0,
                static_cast<std::uint64_t>(t.id()), 0});
        }
    }
    // The coroutine resumes when the operation completes, in global
    // completion-time order (see bestOf).
    t.resumePending = true;
    refresh(core);
}

bool
Scheduler::stepOne()
{
    SimThread *t = pickNext();
    if (!t)
        return false;
    if (t->resumePending)
        resume(*t);
    else
        execute(*t);
    return true;
}

void
Scheduler::run(Tick until, const std::function<bool()> &stop_when)
{
    // Only a resume runs simulated code, so only a resume can flip
    // a predicate that reads coroutine-written state.
    if (stop_when && stop_when())
        return;
    while (globalNow_ < until) {
        SimThread *t = pickNext();
        if (!t)
            return;
        if (!t->resumePending) {
            execute(*t);
        } else {
            resume(*t);
            if (stop_when && stop_when())
                return;
        }
    }
}

void
Scheduler::runUntilFinished(const SimThread *thread, Tick until)
{
    run(until, [thread] { return thread->finished; });
}

TraceBus *
ThreadApi::traceBus() const
{
    return sched_ ? sched_->traceBus() : nullptr;
}

} // namespace csim
