#include "sim/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csim
{

namespace
{

unsigned __int128
pickKey(Tick time, bool is_resume, ThreadId tid)
{
    return static_cast<unsigned __int128>(time) << 64 |
           static_cast<unsigned __int128>(is_resume ? 0 : 1) << 32 |
           static_cast<std::uint32_t>(tid);
}

Tick
keyTime(unsigned __int128 key)
{
    return static_cast<Tick>(key >> 64);
}

/**
 * How many of the events at first, first + period, first + 2 period,
 * ... (all of one kind, one thread) have a key below @p before.
 */
std::uint64_t
eventsBelow(Tick first, Tick period, bool is_resume, ThreadId tid,
            unsigned __int128 before)
{
    const Tick time = keyTime(before);
    if (time < first)
        return 0;
    const Tick since = time - first;
    std::uint64_t n = since / period + 1;
    if (since % period == 0 && pickKey(time, is_resume, tid) > before)
        --n;
    return n;
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
    parked_.reserve(cores_.size());
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
    // A parked poller stops being alone: restore it first, as of the
    // resume that is spawning.
    for (std::size_t i = 0; i < parked_.size(); ++i) {
        if (parked_[i].thread->core() == core) {
            unpark(i, lastKey_);
            break;
        }
    }
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

void
Scheduler::checkIdle() const
{
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
    panic_if(!parked_.empty(),
             "only parked pollers are left and run() has no until they "
             "reach: it would never return");
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
        // It starts at the thread's clock, which may be below its
        // key's time.
        const Tick start = t.now;
        foldParked(pickKey(effectiveStart(t), false, t.id()));
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
            // Subscribers see the clock of the previous event.
            foldParked(pickKey(start, false, t.id()));
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

void
Scheduler::rearm(SimThread &t)
{
    // The completed spin's latency is the spinWhile's step.
    globalNow_ = std::max(globalNow_, t.now);
    t.resumePending = false;
    t.pending = MemOp{MemOp::Kind::spin, 0, t.lastLatency};
    refresh(coreOf(t));
}

void
Scheduler::park(SimThread &t)
{
    // Alone on its core, the poller's core was last used by itself
    // and is free from t.now on, and no quantum or switch rule
    // applies: its next polls are issues at t.now + jP and resumes
    // at t.now + (j+1)P. With no pending op it holds no tree key.
    globalNow_ = std::max(globalNow_, t.now);
    t.resumePending = false;
    t.pending = MemOp{};
    parked_.push_back({&t, t.now});
    horizon_ = std::min(horizon_, horizonOf(parked_.back()));
    refresh(coreOf(t));
}

void
Scheduler::unpark(std::size_t i, PickKey before)
{
    const Parked p = parked_[i];
    parked_[i] = parked_.back();
    parked_.pop_back();
    SimThread &t = *p.thread;
    const Tick period = t.lastLatency;
    const std::uint64_t issues =
        eventsBelow(p.since, period, false, t.id(), before);
    const std::uint64_t resumes =
        eventsBelow(p.since + period, period, true, t.id(), before);
    t.now = p.since + issues * period;
    t.opsExecuted += issues;
    t.resumePending = resumes < issues;
    if (!t.resumePending)
        t.pending = MemOp{MemOp::Kind::spin, 0, period};
    CoreState &core = coreOf(t);
    core.freeAt = t.now;
    refresh(core);
    horizon_ = noPick;
    for (const Parked &q : parked_)
        horizon_ = std::min(horizon_, horizonOf(q));
}

void
Scheduler::unparkAll(PickKey before)
{
    while (!parked_.empty())
        unpark(parked_.size() - 1, before);
}

void
Scheduler::wake(PickKey before)
{
    for (std::size_t i = 0; i < parked_.size();) {
        const SimThread &t = *parked_[i].thread;
        if (*t.watch == t.watchValue)
            ++i;
        else
            unpark(i, before);
    }
}

void
Scheduler::foldParked(PickKey before)
{
    for (const Parked &p : parked_) {
        const Tick period = p.thread->lastLatency;
        const std::uint64_t resumes = eventsBelow(
            p.since + period, period, true, p.thread->id(), before);
        globalNow_ = std::max(globalNow_, p.since + resumes * period);
    }
}

Scheduler::PickKey
Scheduler::horizonOf(const Parked &p) const
{
    // A poller parks only below until_ (see run()), so this is the
    // resume on the first poll boundary at or past until_ (it
    // sorts before that boundary's issue).
    const Tick period = p.thread->lastLatency;
    const Tick polls = (until_ - p.since - 1) / period + 1;
    if (polls > (maxTick - p.since) / period)
        return noPick;
    return pickKey(p.since + polls * period, true, p.thread->id());
}

void
Scheduler::run(Tick until, const std::function<bool()> &stop_when)
{
    // Only a resume runs simulated code, so only a resume can flip
    // a predicate that reads coroutine-written state.
    if (stop_when && stop_when())
        return;
    until_ = until;
    PickKey key = 0;
    try {
        while (globalNow_ < until) {
            key = tree_[1];
            if (key >= horizon_) {
                if (horizon_ == noPick) {
                    checkIdle();
                    return;
                }
                // A parked poller's implied event comes first, and it
                // is the first event at or past until.
                globalNow_ = std::max(globalNow_, keyTime(horizon_));
                unparkAll(horizon_ + 1);
                return;
            }
            SimThread &t = *threads_[static_cast<std::uint32_t>(key)];
            if (!t.resumePending) {
                execute(t);
            } else if (pollsAgain(t)) {
                // At or past until, this is the last event anyway.
                if (coreOf(t).unfinished == 1 && t.now < until)
                    park(t);
                else
                    rearm(t);
            } else {
                lastKey_ = key;
                resume(t);
                if (!parked_.empty())
                    wake(key);
                if (stop_when && stop_when())
                    break;
            }
        }
    } catch (...) {
        unparkAll(key);
        throw;
    }
    unparkAll(key);
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
