#include "probes.hh"

#include <algorithm>
#include <chrono>

#include "bench_util.hh"
#include "cohersim/attack.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace csim;

namespace
{

using Clock = std::chrono::steady_clock;

/** Operations each mem probe's exact-cycles check covers. */
constexpr std::uint64_t kCheckOps = 1000;

SystemConfig
quietConfig()
{
    SystemConfig cfg;
    cfg.timing.jitterSd = 0.0;
    cfg.timing.longTailProb = 0.0;
    cfg.seed = 3;
    return cfg;
}

void
require(bool ok, const std::string &probe, const std::string &what)
{
    if (!ok)
        throw ProbeError(probe + ": " + what);
}

/**
 * Time @p batch (which runs @p batch_ops operations) until
 * @p budget_s has passed; the result is the median ns/op over
 * batches, robust against a preempted batch.
 */
template <typename Batch>
ProbeResult
timeBatches(const std::string &name, std::uint64_t batch_ops,
            double budget_s, Batch &&batch)
{
    ProbeResult r;
    r.name = name;
    std::vector<double> ns_per_op;
    const Clock::time_point start = Clock::now();
    do {
        const Clock::time_point b0 = Clock::now();
        batch();
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - b0)
                .count();
        ns_per_op.push_back(ns / static_cast<double>(batch_ops));
        r.ops += batch_ops;
    } while (std::chrono::duration<double>(Clock::now() - start)
                 .count() < budget_s);
    r.nsPerOp = median(ns_per_op);
    return r;
}

/**
 * A mem-layer probe: @p op issues one probe operation (one or more
 * MemorySystem calls) at virtual time @p now and returns its
 * simulated cycles. The first kCheckOps operations after @p warm
 * must take exactly @p check_cycles cycles, and @p counter must
 * advance by exactly one per operation throughout. @p after_check
 * may assert more of the machine's state after those operations.
 */
template <typename Warm, typename Op, typename Check>
ProbeResult
memProbe(const std::string &name, const SystemConfig &cfg, Warm &&warm,
         Op &&op, std::uint64_t MemStats::*counter,
         std::uint64_t check_cycles, Check &&after_check, double budget_s)
{
    MemorySystem mem(cfg);
    Tick now = 0;
    warm(mem, now);
    const std::uint64_t before = mem.stats().*counter;
    std::uint64_t cycles = 0;
    for (std::uint64_t i = 0; i < kCheckOps; ++i)
        cycles += op(mem, now);
    require(cycles == check_cycles, name,
            msgCat(kCheckOps, " ops took ", cycles,
                   " simulated cycles, expected ", check_cycles));
    after_check(mem);
    constexpr std::uint64_t batch_ops = 256;
    ProbeResult r = timeBatches(name, batch_ops, budget_s, [&] {
        for (std::uint64_t i = 0; i < batch_ops; ++i)
            op(mem, now);
    });
    const std::uint64_t counted = mem.stats().*counter - before;
    require(counted == kCheckOps + r.ops, name,
            msgCat("path counter advanced ", counted, " for ",
                   kCheckOps + r.ops, " ops"));
    return r;
}

void
noWarm(MemorySystem &, Tick &)
{}

void
noCheck(const MemorySystem &)
{}

constexpr PAddr kLine = 0x1000;

ProbeResult
probeL1Hit(double budget_s)
{
    return memProbe(
        "mem.probe_ns_l1_hit", quietConfig(),
        [](MemorySystem &mem, Tick &now) { mem.load(0, kLine, now); },
        [](MemorySystem &mem, Tick &now) {
            now += 10;
            return mem.load(0, kLine, now).latency;
        },
        &MemStats::l1Hits, kCheckOps * 4, noCheck, budget_s);
}

/** The spy's round: flush the line, reload it from DRAM. */
ProbeResult
probeFlushReload(double budget_s)
{
    return memProbe(
        "mem.probe_ns_flush_reload", quietConfig(), noWarm,
        [](MemorySystem &mem, Tick &now) {
            const Tick c = mem.flush(0, kLine, now).latency +
                           mem.load(0, kLine, now + 100).latency;
            now += 1'000;
            return c;
        },
        &MemStats::dramAccesses, 413'675, noCheck, budget_s);
}

/** Exclusive fill on socket 0, then a load from socket 1 that the
 *  owner core forwards: the E-state channel's remote path. */
ProbeResult
probeRemoteForward(double budget_s)
{
    return memProbe(
        "mem.probe_ns_remote_forward", quietConfig(), noWarm,
        [](MemorySystem &mem, Tick &now) {
            const Tick c = mem.flush(0, kLine, now).latency +
                           mem.load(0, kLine, now + 100).latency +
                           mem.load(6, kLine, now + 600).latency;
            now += 1'000;
            return c;
        },
        &MemStats::remoteOwnerForwards, 667'093, noCheck, budget_s);
}

/** Stride over twice the LLC: every load misses everywhere, evicts
 *  an LLC victim and churns the home-agent directory. */
ProbeResult
probeDirChurn(double budget_s)
{
    constexpr PAddr base = 0x100'0000;
    constexpr PAddr span = 24u << 20;
    PAddr offset = 0;
    return memProbe(
        "mem.probe_ns_dir_churn", quietConfig(),
        [](MemorySystem &mem, Tick &now) {
            for (PAddr a = 0; a < span; a += lineBytes) {
                now += 1'000;
                mem.load(0, base + a, now);
            }
        },
        [&offset](MemorySystem &mem, Tick &now) {
            now += 1'000;
            const Tick c = mem.load(0, base + offset, now).latency;
            offset = (offset + lineBytes) % span;
            return c;
        },
        &MemStats::dramAccesses, 390'745, noCheck, budget_s);
}

/** Exclusive fill, silent E->M store, then a flush that writes the
 *  dirty line back. */
ProbeResult
probeStoreWriteback(double budget_s)
{
    return memProbe(
        "mem.probe_ns_store_writeback", quietConfig(), noWarm,
        [](MemorySystem &mem, Tick &now) {
            const Tick c = mem.load(0, kLine, now).latency +
                           mem.store(0, kLine, now + 100).latency +
                           mem.flush(0, kLine, now + 200).latency;
            now += 1'000;
            return c;
        },
        &MemStats::writebacks, 461'426, noCheck, budget_s);
}

/** LLC-side loads under the remap defence, rekeying every 250 of
 *  them: each rekey walks the whole LLC. */
ProbeResult
probeRemapLlcOp(double budget_s)
{
    const std::string name = "mem.probe_ns_remap_llc_op";
    constexpr PAddr base = 0x10'0000;
    constexpr PAddr span = 1 << 20;
    constexpr std::uint64_t period = 250;
    SystemConfig cfg = quietConfig();
    cfg.llcIndex = IndexFn::remap;
    cfg.remapPeriod = period;
    PAddr offset = 0;
    return memProbe(
        name, cfg, noWarm,
        [&offset](MemorySystem &mem, Tick &now) {
            now += 500;
            const Tick c = mem.load(0, base + offset, now).latency;
            offset = (offset + lineBytes) % span;
            return c;
        },
        &MemStats::loads, 391'845,
        [&name](const MemorySystem &mem) {
            require(mem.llcIndexGeneration() == kCheckOps / period, name,
                    msgCat(mem.llcIndexGeneration(), " rekeys in ",
                           kCheckOps, " LLC-side ops, expected ",
                           kCheckOps / period));
        },
        budget_s);
}

Task
spinLoop(ThreadApi api, std::uint64_t ops, Tick cycles)
{
    for (std::uint64_t i = 0; i < ops; ++i)
        co_await api.spin(cycles);
}

/**
 * @p threads simulated threads, one per core, each issuing
 * @p per_thread spin ops: the scheduler's pick/resume loop with no
 * memory traffic. Only Scheduler::run is timed, not building the
 * machine. Every thread must finish at exactly per_thread * spin
 * cycles.
 */
ProbeResult
probeSpin(int threads, std::uint64_t per_thread, double budget_s)
{
    ProbeResult r;
    r.name = msgCat("sim.probe_ns_per_op_t", threads);
    constexpr Tick spin = 100;
    SystemConfig cfg = quietConfig();
    cfg.coresPerSocket = std::max(6, (threads + 1) / 2);
    const std::uint64_t ops =
        per_thread * static_cast<std::uint64_t>(threads);
    std::vector<double> ns_per_op;
    const Clock::time_point start = Clock::now();
    do {
        Machine m(cfg);
        for (int t = 0; t < threads; ++t) {
            m.sched.spawn("spin", t, 0, [per_thread](ThreadApi api) {
                return spinLoop(api, per_thread, spin);
            });
        }
        const Clock::time_point t0 = Clock::now();
        m.sched.run();
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        for (const auto &t : m.sched.threads()) {
            require(t->finished && t->now == per_thread * spin, r.name,
                    msgCat("thread ended at cycle ", t->now,
                           ", expected ", per_thread * spin));
        }
        ns_per_op.push_back(ns / static_cast<double>(ops));
        r.ops += ops;
    } while (std::chrono::duration<double>(Clock::now() - start)
                 .count() < budget_s);
    r.nsPerOp = median(ns_per_op);
    return r;
}

/**
 * Replay one defended cell's captured event stream through a fresh
 * CC-Hunter: every replay must observe every event and reach the
 * live detector's verdict on the shared line.
 */
ProbeResult
probeDetect(std::uint64_t seed, double budget_s)
{
    const std::string name = "detect.probe_ns_per_event";
    ExperimentSpec spec = detectProbeSpec(seed);
    CoherenceChannelDetector live;
    std::vector<TraceEvent> events;
    MemEventTap capture;
    capture.onEvent = [&events](const TraceEvent &ev) {
        events.push_back(ev);
    };
    spec.channel.detector = &live;
    spec.channel.taps.push_back(&capture);
    const ExperimentResult res = runExperiment(spec);
    const PAddr line = lineAlign(res.channel.shared.paddr);
    const LineVerdict want = live.verdict(line);
    require(!events.empty() && events.size() == live.eventsObserved(),
            name,
            msgCat("captured ", events.size(), " events, the detector saw ",
                   live.eventsObserved()));
    return timeBatches(name, events.size(), budget_s, [&] {
        CoherenceChannelDetector det;
        for (const TraceEvent &ev : events)
            det.observe(ev);
        const LineVerdict got = det.verdict(line);
        require(det.eventsObserved() == events.size() &&
                    got.flushes == want.flushes &&
                    got.suspicious == want.suspicious,
                name, "replay verdict differs from the live detector's");
    });
}

} // namespace

std::vector<ProbeResult>
runProbes(std::uint64_t seed, double budget_s)
{
    std::vector<ProbeResult> out;
    std::string failures;
    auto run = [&](auto &&probe) {
        try {
            out.push_back(probe());
        } catch (const ProbeError &e) {
            failures += std::string(failures.empty() ? "" : "; ") +
                        e.what();
        }
    };
    run([&] { return probeL1Hit(budget_s); });
    run([&] { return probeFlushReload(budget_s); });
    run([&] { return probeRemoteForward(budget_s); });
    run([&] { return probeDirChurn(budget_s); });
    run([&] { return probeStoreWriteback(budget_s); });
    run([&] { return probeRemapLlcOp(budget_s); });
    run([&] { return probeSpin(4, 20'000, budget_s); });
    run([&] { return probeSpin(48, 1'000, budget_s); });
    run([&] { return probeDetect(seed, budget_s); });
    if (!failures.empty())
        throw ProbeError(failures);
    return out;
}

} // namespace perfbench
