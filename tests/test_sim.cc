/**
 * @file
 * Unit tests for the simulation engine: coroutine tasks, the
 * virtual-time scheduler, core sharing and spinWhile pollers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/memory_backend.hh"
#include "sim/scheduler.hh"

namespace csim
{
namespace
{

/** Backend with fixed latencies that records every operation. */
class RecordingBackend : public MemoryBackend
{
  public:
    struct Op
    {
        char kind;
        ThreadId tid;
        CoreId core;
        VAddr addr;
        Tick when;
    };

    AccessResult
    load(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'L', tid, core, addr, when});
        return {loadLat, ServedBy::dram};
    }
    AccessResult
    store(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'S', tid, core, addr, when});
        return {storeLat, ServedBy::none};
    }
    AccessResult
    flush(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'F', tid, core, addr, when});
        return {flushLat, ServedBy::none};
    }

    Tick loadLat = 100;
    Tick storeLat = 20;
    Tick flushLat = 50;
    std::vector<Op> ops;
};

struct SimTest : public ::testing::Test
{
    RecordingBackend backend;
};

TEST_F(SimTest, SpinAdvancesClockExactly)
{
    Scheduler sched(&backend, 1);
    SimThread *t = sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spin(123);
        co_await api.spin(7);
    });
    sched.run();
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(t->now, 130u);
}

TEST_F(SimTest, SpinUntilReachesTarget)
{
    Scheduler sched(&backend, 1);
    SimThread *t = sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spinUntil(500);
        // A target in the past is a no-op.
        co_await api.spinUntil(100);
    });
    sched.run();
    EXPECT_EQ(t->now, 500u);
}

TEST_F(SimTest, LoadReturnsLatencyAndRoutesToBackend)
{
    Scheduler sched(&backend, 2);
    Tick seen = 0;
    SimThread *t =
        sched.spawn("t", 1, 3, [&](ThreadApi api) -> Task {
            seen = co_await api.load(0x1040);
        });
    sched.run();
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(seen, 100u);
    ASSERT_EQ(backend.ops.size(), 1u);
    EXPECT_EQ(backend.ops[0].kind, 'L');
    EXPECT_EQ(backend.ops[0].core, 1);
    EXPECT_EQ(backend.ops[0].addr, 0x1040u);
    EXPECT_EQ(t->lastServed, ServedBy::dram);
}

TEST_F(SimTest, StoreAndFlushRouteToBackend)
{
    Scheduler sched(&backend, 1);
    sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.store(0x80);
        co_await api.flush(0x80);
    });
    sched.run();
    ASSERT_EQ(backend.ops.size(), 2u);
    EXPECT_EQ(backend.ops[0].kind, 'S');
    EXPECT_EQ(backend.ops[1].kind, 'F');
    EXPECT_EQ(backend.ops[1].when, 20u);
}

TEST_F(SimTest, ThreadsOnDifferentCoresRunConcurrently)
{
    Scheduler sched(&backend, 2);
    SimThread *a = sched.spawn("a", 0, 0, [](ThreadApi api) -> Task {
        for (int i = 0; i < 10; ++i)
            co_await api.load(0);
    });
    SimThread *b = sched.spawn("b", 1, 0, [](ThreadApi api) -> Task {
        for (int i = 0; i < 10; ++i)
            co_await api.load(64);
    });
    sched.run();
    // No core contention: both finish at 10 loads x 100 cycles.
    EXPECT_EQ(a->now, 1000u);
    EXPECT_EQ(b->now, 1000u);
}

TEST_F(SimTest, SameCoreSerializesWithSwitchPenalty)
{
    SchedulerParams params;
    params.contextSwitchPenalty = 10;
    params.quantum = 1'000'000;
    Scheduler sched(&backend, 1, params);
    SimThread *a = sched.spawn("a", 0, 0, [](ThreadApi api) -> Task {
        co_await api.load(0);
    });
    SimThread *b = sched.spawn("b", 0, 0, [](ThreadApi api) -> Task {
        co_await api.load(64);
    });
    sched.run();
    EXPECT_TRUE(a->finished);
    EXPECT_TRUE(b->finished);
    // b waits for a's load plus the switch penalty.
    EXPECT_EQ(a->now, 100u);
    EXPECT_EQ(b->now, 210u);
}

TEST_F(SimTest, QuantumForcesAlternationOnSharedCore)
{
    SchedulerParams params;
    params.contextSwitchPenalty = 0;
    params.quantum = 150;
    Scheduler sched(&backend, 1, params);
    std::vector<char> order;
    auto body = [&](char who) {
        return [&order, who](ThreadApi api) -> Task {
            for (int i = 0; i < 4; ++i) {
                order.push_back(who);
                co_await api.spin(100);
            }
        };
    };
    sched.spawn("a", 0, 0, body('a'));
    sched.spawn("b", 0, 0, body('b'));
    sched.run();
    // The quantum (150) allows two 100-cycle slices before the core
    // must be yielded, so the other thread runs by index 2 at the
    // latest.
    ASSERT_EQ(order.size(), 8u);
    // Neither thread runs all four of its slices consecutively: the
    // quantum (150 < 2 slices) forces at least one hand-over before
    // the first thread finishes.
    EXPECT_NE(order[3], order[0]);
    int transitions = 0;
    for (std::size_t i = 1; i < order.size(); ++i)
        transitions += order[i] != order[i - 1];
    EXPECT_GE(transitions, 2);
}

TEST_F(SimTest, SleepDoesNotOccupyCore)
{
    SchedulerParams params;
    params.contextSwitchPenalty = 0;
    params.quantum = 1'000'000;
    Scheduler sched(&backend, 1, params);
    SimThread *sleeper =
        sched.spawn("sleeper", 0, 0, [](ThreadApi api) -> Task {
            co_await api.sleep(10'000);
        });
    SimThread *worker =
        sched.spawn("worker", 0, 0, [](ThreadApi api) -> Task {
            for (int i = 0; i < 5; ++i)
                co_await api.spin(100);
        });
    sched.run();
    // The worker is not blocked behind the sleeper's 10k cycles.
    EXPECT_EQ(worker->now, 500u);
    EXPECT_EQ(sleeper->now, 10'000u);
}

TEST_F(SimTest, NestedTasksRunOnTheSameThread)
{
    Scheduler sched(&backend, 1);
    std::vector<int> trace;
    auto inner = [&](ThreadApi api, int tag) -> Task {
        trace.push_back(tag);
        co_await api.spin(10);
        trace.push_back(tag * 10);
    };
    SimThread *t =
        sched.spawn("t", 0, 0, [&](ThreadApi api) -> Task {
            trace.push_back(1);
            co_await inner(api, 2);
            trace.push_back(3);
            co_await inner(api, 4);
        });
    sched.run();
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 20, 3, 4, 40}));
    EXPECT_EQ(t->now, 20u);
}

TEST_F(SimTest, DeeplyNestedTasksUnwindCorrectly)
{
    Scheduler sched(&backend, 1);
    int depth_reached = 0;
    std::function<Task(ThreadApi, int)> recurse =
        [&](ThreadApi api, int depth) -> Task {
        depth_reached = std::max(depth_reached, depth);
        if (depth < 8) {
            co_await api.spin(1);
            co_await recurse(api, depth + 1);
        }
    };
    SimThread *t =
        sched.spawn("t", 0, 0, [&](ThreadApi api) -> Task {
            co_await recurse(api, 1);
        });
    sched.run();
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(depth_reached, 8);
    EXPECT_EQ(t->now, 7u);
}

TEST_F(SimTest, ExceptionInTopLevelTaskPropagates)
{
    Scheduler sched(&backend, 1);
    sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spin(5);
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST_F(SimTest, ExceptionInNestedTaskPropagatesToAwaiter)
{
    Scheduler sched(&backend, 1);
    bool caught = false;
    auto inner = [](ThreadApi api) -> Task {
        co_await api.spin(1);
        throw std::runtime_error("inner boom");
    };
    SimThread *t =
        sched.spawn("t", 0, 0, [&](ThreadApi api) -> Task {
            try {
                co_await inner(api);
            } catch (const std::runtime_error &) {
                caught = true;
            }
            co_await api.spin(1);
        });
    sched.run();
    EXPECT_TRUE(caught);
    EXPECT_TRUE(t->finished);
}

TEST_F(SimTest, ResumeOrderMatchesVirtualTime)
{
    // Regression test for the wall-order vs virtual-time bug: a
    // controller that wakes from a long spinUntil and writes shared
    // C++ state must not be visible to a poller before the wakeup's
    // virtual time.
    Scheduler sched(&backend, 2);
    int mode = 0;
    std::vector<std::pair<Tick, int>> observations;
    sched.spawn("controller", 0, 0, [&](ThreadApi api) -> Task {
        co_await api.spinUntil(10'000);
        mode = 1;
        co_await api.spinUntil(20'000);
        mode = 2;
    });
    SimThread *poller =
        sched.spawn("poller", 1, 0, [&](ThreadApi api) -> Task {
            for (int i = 0; i < 250; ++i) {
                observations.emplace_back(api.now(), mode);
                co_await api.spin(100);
            }
        });
    sched.runUntilFinished(poller);
    for (const auto &[when, m] : observations) {
        if (when < 10'000) {
            EXPECT_EQ(m, 0) << "at tick " << when;
        } else if (when > 10'100 && when < 20'000) {
            EXPECT_EQ(m, 1) << "at tick " << when;
        } else if (when > 20'100) {
            EXPECT_EQ(m, 2) << "at tick " << when;
        }
    }
}

TEST_F(SimTest, DeterministicAcrossRuns)
{
    auto run_once = [this] {
        RecordingBackend be;
        Scheduler sched(&be, 4);
        std::vector<SimThread *> threads;
        for (int i = 0; i < 4; ++i) {
            threads.push_back(sched.spawn(
                "t" + std::to_string(i), i % 4, 0,
                [i](ThreadApi api) -> Task {
                    for (int k = 0; k < 20; ++k) {
                        co_await api.load(
                            static_cast<VAddr>(i * 4096 + k * 64));
                        co_await api.spin(13 + i);
                    }
                }));
        }
        sched.run();
        std::vector<Tick> ends;
        for (auto *t : threads)
            ends.push_back(t->now);
        return std::make_pair(be.ops.size(), ends);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST_F(SimTest, SpawnMidSimulationStartsAtCurrentTime)
{
    Scheduler sched(&backend, 2);
    SimThread *late = nullptr;
    SimThread *first =
        sched.spawn("first", 0, 0, [&](ThreadApi api) -> Task {
            co_await api.spin(5'000);
        });
    sched.runUntilFinished(first);
    late = sched.spawn("late", 1, 0, [](ThreadApi api) -> Task {
        co_await api.spin(10);
    });
    sched.run();
    EXPECT_GE(late->now, 5'000u);
}

TEST_F(SimTest, RunUntilTickStopsEarly)
{
    Scheduler sched(&backend, 1);
    SimThread *t = sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        for (;;)
            co_await api.spin(100);
    });
    sched.run(5'000);
    EXPECT_FALSE(t->finished);
    EXPECT_GE(sched.now(), 4'900u);
    EXPECT_LE(sched.now(), 5'200u);
}

TEST_F(SimTest, StopWhenPredicateStopsRun)
{
    Scheduler sched(&backend, 1);
    int laps = 0;
    sched.spawn("t", 0, 0, [&](ThreadApi api) -> Task {
        for (;;) {
            ++laps;
            co_await api.spin(100);
        }
    });
    sched.run(maxTick, [&] { return laps >= 10; });
    EXPECT_GE(laps, 10);
    EXPECT_LT(laps, 20);
}

TEST_F(SimTest, IdleSchedulerReportsNoWork)
{
    Scheduler sched(&backend, 1);
    sched.run();
    EXPECT_TRUE(sched.allFinished());
    EXPECT_EQ(sched.now(), 0u);
    sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.load(0);
    });
    sched.run();
    EXPECT_TRUE(sched.allFinished());
    const Tick done = sched.now();
    sched.run();
    EXPECT_EQ(sched.now(), done);
    EXPECT_EQ(backend.ops.size(), 1u);
}

TEST_F(SimTest, InvalidCorePinningIsFatal)
{
    Scheduler sched(&backend, 2);
    EXPECT_THROW(sched.spawn("bad", 7, 0,
                             [](ThreadApi api) -> Task {
                                 co_await api.spin(1);
                             }),
                 std::runtime_error);
}

/**
 * Pinned schedules. Each mix is a seeded random set of threads over
 * a few shared cores with a short quantum; its complete op log and
 * sched.* trace stream are hashed against digests recorded from the
 * original all-threads scan, so any change to pick order, core
 * accounting or preemption changes a digest.
 */
struct PinnedMix
{
    std::uint64_t seed;
    int cores;
    int threads;
    int ops;            //!< ops per thread
    Tick quantum;
    Tick penalty;
    std::uint64_t digest;
};

/** Shared between the bodies of one mix. */
struct MixState
{
    int cores = 1;
    int spawnsLeft = 0;  //!< mid-run spawns the bodies may still make
};

Task
nestedOps(ThreadApi api, std::uint64_t seed, int depth)
{
    Rng rng(seed);
    const auto n = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < n; ++i) {
        co_await api.spin(rng.below(200));
        co_await api.load(rng.below(64) * 64);
    }
    if (depth > 0)
        co_await nestedOps(api, rng.next(), depth - 1);
}

Task
randomBody(ThreadApi api, MixState *mix, std::uint64_t seed, int ops,
           bool throws)
{
    Rng rng(seed);
    const auto throw_at =
        throws ? static_cast<int>(rng.below(static_cast<std::uint64_t>(
                     ops)))
               : -1;
    for (int i = 0; i < ops; ++i) {
        if (i == throw_at)
            throw std::runtime_error("scripted failure");
        const VAddr addr = rng.below(32) * 64;
        switch (rng.below(10)) {
          case 0:
            co_await api.load(addr);
            break;
          case 1:
            co_await api.store(addr);
            break;
          case 2:
            co_await api.flush(addr);
            break;
          case 3:
          case 4:
            co_await api.spin(rng.below(400));
            break;
          case 5:
            // Targets ahead of the clock and already in the past.
            co_await api.spinUntil(rng.below(2) != 0
                                       ? api.now() + rng.below(1'500)
                                       : rng.below(api.now() + 1));
            break;
          case 6:
            co_await api.sleep(rng.below(5'000));
            break;
          case 7:
            co_await nestedOps(api, rng.next(), static_cast<int>(
                                                    rng.below(3)));
            break;
          case 8:
            if (mix->spawnsLeft > 0) {
                --mix->spawnsLeft;
                const auto core = static_cast<CoreId>(rng.below(
                    static_cast<std::uint64_t>(mix->cores)));
                const std::uint64_t child = rng.next();
                api.scheduler()->spawn(
                    "child", core, 0,
                    [mix, child, ops](ThreadApi a) {
                        return randomBody(a, mix, child, ops / 2,
                                          false);
                    });
            }
            co_await api.spin(10);
            break;
          default:
            co_await api.load(addr);
            co_await api.spin(rng.below(50));
            break;
        }
    }
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Fold a finished run's op log, sched.* trace and end clocks into
 *  @p h. */
std::uint64_t
hashOutcome(std::uint64_t h, const RecordingBackend &be,
            const std::vector<TraceEvent> &events,
            const Scheduler &sched)
{
    for (const auto &op : be.ops) {
        h = fnv(h, static_cast<std::uint64_t>(op.kind));
        h = fnv(h, static_cast<std::uint64_t>(op.tid));
        h = fnv(h, static_cast<std::uint64_t>(op.core));
        h = fnv(h, op.addr);
        h = fnv(h, op.when);
    }
    for (const auto &ev : events) {
        h = fnv(h, static_cast<std::uint64_t>(ev.type));
        h = fnv(h, static_cast<std::uint64_t>(ev.core));
        h = fnv(h, ev.when);
        h = fnv(h, ev.a);
        h = fnv(h, ev.b);
    }
    for (const auto &t : sched.threads()) {
        h = fnv(h, t->now);
        h = fnv(h, t->opsExecuted);
    }
    return h;
}

std::uint64_t
scheduleDigest(const PinnedMix &mix)
{
    RecordingBackend be;
    TraceBus bus;
    std::vector<TraceEvent> events;
    bus.subscribe(categoryBit(TraceCategory::sched),
                  [&events](const TraceEvent &ev) {
                      events.push_back(ev);
                  });
    SchedulerParams params;
    params.quantum = mix.quantum;
    params.contextSwitchPenalty = mix.penalty;
    Scheduler sched(&be, mix.cores, params);
    sched.setTraceBus(&bus);
    MixState state;
    state.cores = mix.cores;
    state.spawnsLeft = 3;

    Rng rng(mix.seed);
    // Core 0 always holds a hog that outlives its quantum while its
    // only waiter sleeps, i.e. is resume-pending, not issuing.
    sched.spawn("sleeper", 0, 0, [](ThreadApi api) -> Task {
        co_await api.sleep(9'000);
        for (int i = 0; i < 5; ++i)
            co_await api.spin(300);
    });
    sched.spawn("hog", 0, 0, [](ThreadApi api) -> Task {
        for (int i = 0; i < 40; ++i)
            co_await api.spin(700);
    });
    for (int t = 0; t < mix.threads; ++t) {
        const auto core = static_cast<CoreId>(
            rng.below(static_cast<std::uint64_t>(mix.cores)));
        const std::uint64_t seed = rng.next();
        const bool throws = t % 5 == 4;
        MixState *st = &state;
        const int ops = mix.ops;
        sched.spawn("t" + std::to_string(t), core, 0,
                    [st, seed, ops, throws](ThreadApi api) {
                        return randomBody(api, st, seed, ops, throws);
                    });
    }

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (;;) {
        try {
            sched.run();
            break;
        } catch (const std::runtime_error &) {
            h = fnv(h, sched.now());
        }
    }
    EXPECT_TRUE(sched.allFinished());
    return hashOutcome(h, be, events, sched);
}

TEST(PinnedSchedule, RandomMixesMatchRecordedDigests)
{
    const PinnedMix mixes[] = {
        {1, 1, 4, 40, 600, 50,
         12682613125676984468ULL},
        {2, 2, 6, 60, 1'500, 200,
         13135307023722401134ULL},
        {3, 3, 9, 50, 3'000, 500,
         17449067955158473713ULL},
        {4, 4, 12, 40, 400, 0,
         4686427552793648853ULL},
        {5, 6, 14, 60, 2'000, 100,
         11529027678629504531ULL},
        {6, 12, 20, 30, 800, 500,
         16982954644728996878ULL},
        {7, 2, 3, 120, 300, 20,
         17974467442408623130ULL},
        {8, 5, 16, 50, 1'000, 300,
         2405366947007826781ULL},
    };
    for (const PinnedMix &mix : mixes) {
        EXPECT_EQ(scheduleDigest(mix), mix.digest)
            << "mix seed " << mix.seed;
    }
}

/**
 * Pinned pollers. Pollers wait on a control byte the way the
 * channel's placer loaders do, writers flip those bytes on a script
 * (many flips land exactly on a poll boundary), and seeded random
 * threads share the cores. The op log, the sched.* trace, every
 * thread's end clock and sched.now() after each run() return are
 * hashed against digests recorded with the pollers written as plain
 * `while (*w == v) co_await spin(P)` loops; the same pollers written
 * with ThreadApi::spinWhile must reproduce them.
 */
struct PollCtl
{
    enum class Mode : std::uint8_t
    {
        idle,
        work,
        stop,
    };
    Mode mode = Mode::idle;
};

/** One step of a writer's script. */
struct PollStep
{
    enum class Kind : std::uint8_t
    {
        flip,   //!< at tick `at`, set ctl `target` to `mode`
        flag,   //!< at tick `at`, raise the stop flag
        raise,  //!< at tick `at`, throw out of run()
        sleep,  //!< sleep for `at` cycles
        spawn,  //!< at tick `at`, spawn a short worker on core `target`
    };
    Kind kind;
    Tick at;
    int target = 0;
    PollCtl::Mode mode = PollCtl::Mode::idle;
};

struct PollThread
{
    enum class Role : std::uint8_t
    {
        poller,
        writer,
        noise,  //!< randomBody, spawns included
    };
    Role role;
    CoreId core;
    int ctl = 0;                   //!< poller: the byte it watches
    Tick poll = 0;                 //!< poller: cycles per poll
    std::vector<PollStep> script;  //!< writer
    std::uint64_t seed = 0;        //!< noise
    bool throws = false;           //!< noise
};

struct PollScenario
{
    int cores;
    Tick quantum;
    Tick penalty;
    int ctls;
    std::vector<PollThread> threads;  //!< in spawn order (= thread id)
    /** run(until) calls, then run(stop on the flag), then run(). */
    std::vector<Tick> untils;
};

/** How the pollers wait: a plain spin loop or spinWhile. */
enum class PollForm
{
    loop,
    spinWhile,
};

/** State the bodies of one scenario share. */
struct PollWorld
{
    PollForm form = PollForm::loop;
    std::vector<PollCtl> ctls;
    bool flag = false;
    /** Coroutine wake-ups of the pollers while idle. */
    std::uint64_t idleWakes = 0;
};

Task
pollerBody(ThreadApi api, PollWorld *world, int ctl, Tick poll)
{
    PollCtl &c = world->ctls[static_cast<std::size_t>(ctl)];
    for (;;) {
        switch (c.mode) {
          case PollCtl::Mode::stop:
            co_return;
          case PollCtl::Mode::work:
            co_await api.load(0x40 * static_cast<VAddr>(ctl));
            co_await api.spin(poll / 3);
            break;
          case PollCtl::Mode::idle:
            if (world->form == PollForm::spinWhile) {
                ++world->idleWakes;
                co_await api.spinWhile(&c.mode, PollCtl::Mode::idle,
                                       poll);
                break;
            }
            while (c.mode == PollCtl::Mode::idle) {
                ++world->idleWakes;
                co_await api.spin(poll);
            }
            break;
        }
    }
}

Task
writerBody(ThreadApi api, PollWorld *world,
           const std::vector<PollStep> *script)
{
    for (const PollStep &s : *script) {
        switch (s.kind) {
          case PollStep::Kind::flip:
            co_await api.spinUntil(s.at);
            world->ctls[static_cast<std::size_t>(s.target)].mode = s.mode;
            break;
          case PollStep::Kind::flag:
            co_await api.spinUntil(s.at);
            world->flag = true;
            break;
          case PollStep::Kind::raise:
            co_await api.spinUntil(s.at);
            throw std::runtime_error("scripted failure");
          case PollStep::Kind::sleep:
            co_await api.sleep(s.at);
            break;
          case PollStep::Kind::spawn:
            co_await api.spinUntil(s.at);
            api.scheduler()->spawn(
                "worker", s.target, 0, [](ThreadApi a) -> Task {
                    for (int i = 0; i < 6; ++i) {
                        co_await a.load(0x400 + 0x40 * static_cast<VAddr>(i));
                        co_await a.spin(150);
                    }
                });
            break;
        }
    }
}

std::uint64_t
pollDigest(const PollScenario &s, PollForm form)
{
    RecordingBackend be;
    TraceBus bus;
    SchedulerParams params;
    params.quantum = s.quantum;
    params.contextSwitchPenalty = s.penalty;
    Scheduler sched(&be, s.cores, params);
    sched.setTraceBus(&bus);
    // sched.now() as a subscriber sees it, at every sched.* event.
    std::vector<TraceEvent> events;
    std::vector<Tick> seen;
    bus.subscribe(categoryBit(TraceCategory::sched),
                  [&events, &seen, &sched](const TraceEvent &ev) {
                      events.push_back(ev);
                      seen.push_back(sched.now());
                  });
    PollWorld world;
    world.form = form;
    world.ctls.resize(static_cast<std::size_t>(s.ctls));
    MixState mix;
    mix.cores = s.cores;
    mix.spawnsLeft = 2;

    PollWorld *w = &world;
    MixState *m = &mix;
    for (const PollThread &pt : s.threads) {
        switch (pt.role) {
          case PollThread::Role::poller:
            sched.spawn("poller", pt.core, 0,
                        [w, ctl = pt.ctl, poll = pt.poll](ThreadApi api) {
                            return pollerBody(api, w, ctl, poll);
                        });
            break;
          case PollThread::Role::writer:
            sched.spawn("writer", pt.core, 0,
                        [w, script = &pt.script](ThreadApi api) {
                            return writerBody(api, w, script);
                        });
            break;
          case PollThread::Role::noise:
            sched.spawn("noise", pt.core, 0,
                        [m, seed = pt.seed,
                         throws = pt.throws](ThreadApi api) {
                            return randomBody(api, m, seed, 30, throws);
                        });
            break;
        }
    }

    // Every return from run(), an exception's included, must leave
    // the global clock and every thread's clock as stepping would.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto snapshot = [&] {
        h = fnv(h, sched.now());
        for (const auto &t : sched.threads()) {
            h = fnv(h, t->now);
            h = fnv(h, t->opsExecuted);
        }
    };
    const auto run = [&](Tick until, const std::function<bool()> &stop) {
        for (;;) {
            try {
                sched.run(until, stop);
                break;
            } catch (const std::runtime_error &) {
                snapshot();
            }
        }
        snapshot();
    };
    for (const Tick until : s.untils)
        run(until, {});
    run(maxTick, [w] { return w->flag; });
    run(maxTick, {});
    EXPECT_TRUE(sched.allFinished());
    for (const Tick now : seen)
        h = fnv(h, now);
    return hashOutcome(h, be, events, sched);
}

PollStep
flip(Tick at, int ctl, PollCtl::Mode mode)
{
    return {PollStep::Kind::flip, at, ctl, mode};
}

/** Every ctl to stop at @p at, so the pollers finish. */
void
stopAll(std::vector<PollStep> &script, Tick at, int ctls)
{
    for (int c = 0; c < ctls; ++c)
        script.push_back(flip(at, c, PollCtl::Mode::stop));
}

PollThread
poller(CoreId core, int ctl, Tick poll)
{
    return {PollThread::Role::poller, core, ctl, poll, {}, 0, false};
}

PollThread
writer(CoreId core, std::vector<PollStep> script)
{
    return {PollThread::Role::writer, core, 0, 0, std::move(script), 0,
            false};
}

PollThread
noise(CoreId core, std::uint64_t seed, bool throws = false)
{
    return {PollThread::Role::noise, core, 0, 0, {}, seed, throws};
}

/**
 * A seeded mix: a writer spawned before the pollers (lower thread id)
 * and one after (higher id), flips on multiples of 80 cycles, flips
 * undone within one poll, sleeps, spawns, noise on shared cores and
 * random run(until) cuts.
 */
PollScenario
randomPollScenario(std::uint64_t seed)
{
    Rng rng(seed);
    PollScenario s;
    s.cores = 2 + static_cast<int>(rng.below(4));
    s.quantum = 400 + rng.below(2'600);
    s.penalty = 60 * rng.below(4);
    s.ctls = 1 + static_cast<int>(rng.below(3));
    const auto core = [&] {
        return static_cast<CoreId>(
            rng.below(static_cast<std::uint64_t>(s.cores)));
    };
    const auto ctl = [&] {
        return static_cast<int>(
            rng.below(static_cast<std::uint64_t>(s.ctls)));
    };
    Tick end = 0;
    const auto script = [&](bool raises_flag) {
        std::vector<PollStep> steps;
        Tick t = 0;
        const int n = 6 + static_cast<int>(rng.below(8));
        for (int i = 0; i < n; ++i) {
            t += 80 * (1 + rng.below(20));
            switch (rng.below(6)) {
              case 0:
              case 1:
                steps.push_back(flip(t, ctl(),
                                     rng.below(3) != 0
                                         ? PollCtl::Mode::work
                                         : PollCtl::Mode::idle));
                break;
              case 2: {
                const int c = ctl();
                steps.push_back(flip(t, c, PollCtl::Mode::work));
                steps.push_back(
                    flip(t + rng.below(79), c, PollCtl::Mode::idle));
                break;
              }
              case 3:
                // Back to back: the second may start before its key.
                steps.push_back({PollStep::Kind::sleep,
                                 rng.below(3'000)});
                steps.push_back({PollStep::Kind::sleep,
                                 rng.below(1'000)});
                break;
              case 4:
                steps.push_back({PollStep::Kind::spawn, t, core()});
                break;
              default:
                steps.push_back(flip(t, ctl(), PollCtl::Mode::idle));
                break;
            }
        }
        if (raises_flag)
            steps.push_back({PollStep::Kind::flag, t / 2});
        t += 80 * (1 + rng.below(20));
        stopAll(steps, t, s.ctls);
        end = std::max(end, t);
        return steps;
    };
    s.threads.push_back(writer(core(), script(true)));
    const int pollers = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < pollers; ++i) {
        static constexpr Tick polls[] = {80, 80, 64, 120};
        s.threads.push_back(poller(core(), ctl(), polls[rng.below(4)]));
    }
    s.threads.push_back(writer(core(), script(false)));
    const int noises = static_cast<int>(rng.below(3));
    for (int i = 0; i < noises; ++i)
        s.threads.push_back(noise(core(), rng.next(), i == 1));
    Tick u = 0;
    for (int i = static_cast<int>(rng.below(4)); i > 0; --i) {
        u += rng.below(end / 3 + 1);
        s.untils.push_back(rng.below(2) != 0 ? u : u / 80 * 80);
    }
    return s;
}

std::vector<PollScenario>
pollScenarios()
{
    using M = PollCtl::Mode;
    std::vector<PollScenario> out;
    // Flips exactly on a poll boundary from a writer below (thread 0)
    // and above (thread 3) the poller's id; the flip and its undo
    // within one poll, and twice within one tick. The run(until)
    // cuts fall where only the idle pollers have events.
    out.push_back({4, 3'000, 500, 2,
                   {writer(1, {flip(800, 1, M::work),
                               flip(2'000, 1, M::idle),
                               flip(4'010, 0, M::work),
                               flip(4'050, 0, M::idle),
                               flip(4'800, 0, M::work),
                               flip(4'800, 0, M::idle)}),
                    poller(0, 0, 80), poller(2, 1, 80),
                    writer(3, {flip(1'600, 0, M::work),
                               flip(3'200, 0, M::idle),
                               flip(5'600, 1, M::work),
                               flip(5'680, 1, M::idle),
                               flip(7'000, 0, M::stop),
                               flip(7'000, 1, M::stop)})},
                   {500, 560, 561}});
    // Workers spawned onto an idle lone poller's core, on a poll
    // boundary and mid-poll: the poller shares the core (switch
    // penalty, quantum), then its core-mates finish and it is alone
    // again.
    {
        std::vector<PollStep> s = {{PollStep::Kind::spawn, 2'000, 0},
                                   {PollStep::Kind::spawn, 2'400, 0},
                                   {PollStep::Kind::spawn, 24'030, 0},
                                   flip(30'000, 0, M::work)};
        stopAll(s, 32'000, 1);
        out.push_back({2, 400, 0, 1,
                       {poller(0, 0, 80), writer(1, std::move(s))},
                       {}});
    }
    // run(until) cut on an implied poll, on a poll boundary and one
    // tick past it; back-to-back sleeps on another (contended) core
    // while the poller idles, the second starting before its key's
    // time; exceptions out of run(), one of them mid-poll while the
    // poller idles; a stop-flag exit, then a second run().
    {
        std::vector<PollStep> s = {{PollStep::Kind::sleep, 700},
                                   {PollStep::Kind::sleep, 500},
                                   flip(2'400, 0, M::work),
                                   {PollStep::Kind::sleep, 900},
                                   flip(4'000, 0, M::idle),
                                   {PollStep::Kind::flag, 4'500},
                                   {PollStep::Kind::sleep, 1'300},
                                   {PollStep::Kind::sleep, 300}};
        stopAll(s, 8'000, 1);
        out.push_back({3, 1'000, 200, 1,
                       {poller(0, 0, 80), noise(2, 99),
                        writer(2, std::move(s)), noise(1, 7, true),
                        writer(1, {{PollStep::Kind::raise, 1'510}})},
                       {1'000, 1'200, 1'201, 3'333, 4'100}});
    }
    // Pollers sharing their core with noise and with each other, so
    // quantum expiry and switch penalties apply to their polls.
    {
        std::vector<PollStep> s = {flip(1'000, 0, M::work),
                                   flip(1'500, 1, M::work),
                                   flip(2'960, 0, M::idle),
                                   flip(3'000, 1, M::idle)};
        stopAll(s, 12'000, 2);
        out.push_back({2, 500, 100, 2,
                       {poller(0, 0, 80), noise(0, 5), poller(0, 1, 64),
                        writer(1, std::move(s))},
                       {2'000}});
    }
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        out.push_back(randomPollScenario(seed));
    return out;
}

TEST(PinnedPoll, ScriptedAndRandomMixesMatchRecordedDigests)
{
    const std::uint64_t digests[] = {
        13121851544493771567ULL,
        11414229972441098965ULL,
        244050707071631041ULL,
        16622880235155509692ULL,
        13414491432070341104ULL,
        14905157386286384843ULL,
        12544447436812223323ULL,
        6896098296821432800ULL,
        9474757072007759497ULL,
        17324187526397473894ULL,
        6326885170674974370ULL,
        7232713801057252837ULL,
    };
    const std::vector<PollScenario> scenarios = pollScenarios();
    ASSERT_EQ(scenarios.size(), std::size(digests));
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_EQ(pollDigest(scenarios[i], PollForm::loop), digests[i])
            << "scenario " << i;
        EXPECT_EQ(pollDigest(scenarios[i], PollForm::spinWhile),
                  digests[i])
            << "scenario " << i << " with spinWhile";
    }
}

TEST(PinnedPoll, LonePollerIsFastForwarded)
{
    // One spinWhile poller alone on core 0 for 1000 polls while a
    // writer on core 1 waits, peeks at the poller and stops it.
    RecordingBackend be;
    Scheduler sched(&be, 2);
    PollWorld world;
    world.form = PollForm::spinWhile;
    world.ctls.resize(1);
    PollWorld *w = &world;
    SimThread *poller = sched.spawn("poller", 0, 0, [w](ThreadApi api) {
        return pollerBody(api, w, 0, 80);
    });
    Tick seen = 0;
    sched.spawn("writer", 1, 0, [&](ThreadApi api) -> Task {
        co_await api.spinUntil(40'000);
        seen = poller->now;
        co_await api.spinUntil(80'000);
        w->ctls[0].mode = PollCtl::Mode::stop;
    });
    sched.run(60'010);
    // run(until) ends on the implied poll resume at 60'080, with the
    // poller at that resume.
    EXPECT_EQ(sched.now(), 60'080u);
    EXPECT_EQ(poller->now, 60'080u);
    EXPECT_EQ(poller->opsExecuted, 1u + 751u);
    sched.run();
    EXPECT_TRUE(poller->finished);
    // The stop lands on a poll boundary after the writer (id 1) ...
    EXPECT_EQ(poller->now, 80'080u);
    EXPECT_EQ(poller->opsExecuted, 1u + 1'001u);
    // ... and the body woke once for all 1001 polls: spinWhile
    // re-arms without resuming the coroutine.
    EXPECT_EQ(world.idleWakes, 1u);
    // It parked at its first re-arm (tick 80), and its clock was not
    // stepped while the writer looked.
    EXPECT_EQ(seen, 80u);
}

TEST_F(SimTest, SpinWhileRejectsAZeroStep)
{
    // A zero step would poll forever without the clock moving.
    Scheduler sched(&backend, 1);
    const bool flag = true;
    sched.spawn("t", 0, 0, [&flag](ThreadApi api) -> Task {
        co_await api.spinWhile(&flag, true, 0);
    });
    EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(SchedulerConstruction, RejectsBadArguments)
{
    RecordingBackend be;
    EXPECT_THROW(Scheduler(nullptr, 1), std::runtime_error);
    EXPECT_THROW(Scheduler(&be, 0), std::runtime_error);
}

} // namespace
} // namespace csim
