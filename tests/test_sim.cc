/**
 * @file
 * Unit tests for the simulation engine: coroutine tasks, the
 * virtual-time scheduler, core sharing and the sync primitives.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/memory_backend.hh"
#include "sim/scheduler.hh"
#include "sim/sync.hh"

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
    EXPECT_FALSE(sched.stepOne());
    sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spin(1);
    });
    sched.run();
    EXPECT_TRUE(sched.allFinished());
    EXPECT_FALSE(sched.stepOne());
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

TEST(SchedulerConstruction, RejectsBadArguments)
{
    RecordingBackend be;
    EXPECT_THROW(Scheduler(nullptr, 1), std::runtime_error);
    EXPECT_THROW(Scheduler(&be, 0), std::runtime_error);
}

TEST(Mailbox, PostAndTakeFifo)
{
    Mailbox<int> box;
    EXPECT_TRUE(box.empty());
    EXPECT_FALSE(box.tryTake().has_value());
    box.post(1);
    box.post(2);
    EXPECT_EQ(box.size(), 2u);
    EXPECT_EQ(box.tryTake().value(), 1);
    EXPECT_EQ(box.tryTake().value(), 2);
    EXPECT_TRUE(box.empty());
}

TEST(AckCounterTest, Bumps)
{
    AckCounter c;
    EXPECT_EQ(c.value(), 0u);
    c.bump();
    c.bump();
    EXPECT_EQ(c.value(), 2u);
}

TEST(SpinBarrierTest, ReleasesWhenAllArrive)
{
    SpinBarrier barrier(2);
    const auto g0 = barrier.arrive();
    EXPECT_FALSE(barrier.passed(g0));
    const auto g1 = barrier.arrive();
    EXPECT_EQ(g0, g1);
    EXPECT_TRUE(barrier.passed(g0));
}

TEST(SyncCoroutines, PollUntilAndBarrierWait)
{
    RecordingBackend be;
    Scheduler sched(&be, 2);
    SpinBarrier barrier(2);
    bool flag = false;
    Tick a_done = 0, b_done = 0;
    SimThread *a =
        sched.spawn("a", 0, 0, [&](ThreadApi api) -> Task {
            co_await barrierWait(api, barrier, 50);
            a_done = api.now();
            co_await pollUntil(api, [&] { return flag; }, 50);
        });
    sched.spawn("b", 1, 0, [&](ThreadApi api) -> Task {
        co_await api.spin(1'000);
        co_await barrierWait(api, barrier, 50);
        b_done = api.now();
        co_await api.spin(2'000);
        flag = true;
    });
    sched.run();
    EXPECT_TRUE(a->finished);
    // a waited at the barrier until b arrived (~tick 1000).
    EXPECT_GE(a_done, 1'000u);
    EXPECT_LE(a_done - std::min(a_done, b_done), 100u);
    // a then waited for the flag set at ~tick 3000.
    EXPECT_GE(a->now, 3'000u);
}

} // namespace
} // namespace csim
