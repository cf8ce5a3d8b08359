/**
 * @file
 * Self-timed steady-state performance suite for the coherence core,
 * with a regression gate.
 *
 * Each kernel drives one hot path of `MemorySystem` in a steady state
 * (L1 hit, LLC serve, cross-socket forward, flush+reload round,
 * directory churn), one end-to-end run of the `fig08-sweep` preset,
 * the scheduler's pick/resume loop with 4 and 48 spinning threads
 * and its fast-forward of idle spinWhile pollers, and reports host
 * ops/sec alongside the mean *virtual* cycles per op. The results
 * land in `BENCH_perf.json`.
 *
 * Host throughput is machine-dependent, so the suite also times a
 * pure-arithmetic `host_ref` kernel that never touches the simulator.
 * `--check <baseline.json>` rescales every baseline figure by the
 * host_ref ratio before applying the tolerance, which lets one
 * committed baseline (`bench/perf_baseline.json`) gate CI runners of
 * different speeds:
 *
 *   perf_suite --check bench/perf_baseline.json   # exit 1 on regression
 *   perf_suite --json BENCH_perf.json             # measure + write only
 *
 * Refresh the baseline after an intentional perf change with
 *   perf_suite --json bench/perf_baseline.json
 * on an otherwise idle machine (see EXPERIMENTS.md).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"
#include "prof/profiler.hh"
#include "sim/scheduler.hh"

namespace
{

using namespace csim;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

SystemConfig
quietConfig()
{
    SystemConfig cfg;
    cfg.timing.jitterSd = 0.0;
    cfg.timing.longTailProb = 0.0;
    cfg.seed = 3;
    return cfg;
}

struct KernelResult
{
    std::string name;
    double opsPerSec = 0.0;  //!< best rep
    double cyclesPerOp = 0.0; //!< mean virtual cycles/op, best rep
    std::uint64_t ops = 0;    //!< ops in the best rep
    double seconds = 0.0;     //!< wall of the best rep
};

/**
 * Time @p body (which runs one batch, adding to the op and virtual
 * cycle counters) in @p reps repetitions of at least @p min_seconds
 * each and keep the fastest rep. State captured by the body persists
 * across batches, so the kernel stays in steady state.
 */
template <typename Body>
KernelResult
measureKernel(const std::string &name, int reps, double min_seconds,
              Body &&body)
{
    KernelResult best;
    best.name = name;
    for (int rep = 0; rep < reps; ++rep) {
        std::uint64_t ops = 0;
        std::uint64_t vcycles = 0;
        const Clock::time_point start = Clock::now();
        double elapsed = 0.0;
        do {
            body(ops, vcycles);
            elapsed = secondsSince(start);
        } while (elapsed < min_seconds);
        const double ops_per_sec = static_cast<double>(ops) / elapsed;
        if (ops_per_sec > best.opsPerSec) {
            best.opsPerSec = ops_per_sec;
            best.cyclesPerOp = ops == 0
                ? 0.0
                : static_cast<double>(vcycles)
                      / static_cast<double>(ops);
            best.ops = ops;
            best.seconds = elapsed;
        }
    }
    return best;
}

/** Pure-arithmetic reference: normalises baselines across hosts. */
KernelResult
kernelHostRef(int reps, double min_seconds)
{
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    return measureKernel(
        "host_ref", reps, min_seconds,
        [&state](std::uint64_t &ops, std::uint64_t &) {
            std::uint64_t x = state;
            for (int i = 0; i < 4096; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Keep the dependency chain live so the loop is not
                // folded away; the kernel must time real arithmetic.
                asm volatile("" : "+r"(x));
            }
            state = x;
            ops += 4096;
        });
}

/** Same line loaded by the same core forever: pure L1 hits. */
KernelResult
kernelL1HitLoad(int reps, double min_seconds)
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    mem.load(0, 0x1000, now);
    return measureKernel(
        "l1_hit_load", reps, min_seconds,
        [&mem, &now](std::uint64_t &ops, std::uint64_t &vcycles) {
            for (int i = 0; i < 1024; ++i) {
                now += 10;
                vcycles += static_cast<std::uint64_t>(
                    mem.load(0, 0x1000, now).latency);
            }
            ops += 1024;
        });
}

/**
 * Stride over a 1 MiB working set: larger than L2 (256 KiB) so the
 * private caches thrash, smaller than the LLC (12 MiB) so every load
 * is served by the shared cache in steady state.
 */
KernelResult
kernelLlcServeLoad(int reps, double min_seconds)
{
    MemorySystem mem(quietConfig());
    constexpr PAddr base = 0x10'0000;
    constexpr PAddr span = 1 << 20;
    // Advance virtual time past the serve latency so the resource
    // queues stay drained and cycles/op reports the bare path.
    Tick now = 0;
    PAddr offset = 0;
    for (PAddr a = 0; a < span; a += 64) {   // warm the LLC
        now += 500;
        mem.load(0, base + a, now);
    }
    return measureKernel(
        "llc_serve_load", reps, min_seconds,
        [&mem, &now, &offset](std::uint64_t &ops,
                              std::uint64_t &vcycles) {
            for (int i = 0; i < 1024; ++i) {
                now += 500;
                vcycles += static_cast<std::uint64_t>(
                    mem.load(0, base + offset, now).latency);
                offset = (offset + 64) % span;
            }
            ops += 1024;
        });
}

/**
 * One flush + exclusive fill + cross-socket load per op: the remote
 * owner-forward path the E-state covert channel is built on.
 */
KernelResult
kernelRemoteOwnerForward(int reps, double min_seconds)
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    return measureKernel(
        "remote_owner_forward", reps, min_seconds,
        [&mem, &now](std::uint64_t &ops, std::uint64_t &vcycles) {
            for (int i = 0; i < 64; ++i) {
                mem.flush(0, 0x1000, now);
                mem.load(0, 0x1000, now + 100);      // E at core 0
                vcycles += static_cast<std::uint64_t>(
                    mem.load(6, 0x1000, now + 600).latency);
                now += 1'000;
            }
            ops += 64;
        });
}

/** The spy's flush+reload round against a single target line. */
KernelResult
kernelFlushReloadCycle(int reps, double min_seconds)
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    return measureKernel(
        "flush_reload_cycle", reps, min_seconds,
        [&mem, &now](std::uint64_t &ops, std::uint64_t &vcycles) {
            for (int i = 0; i < 256; ++i) {
                mem.flush(0, 0x2000, now);
                vcycles += static_cast<std::uint64_t>(
                    mem.load(0, 0x2000, now + 100).latency);
                now += 1'000;
            }
            ops += 256;
        });
}

/**
 * Stride over a 24 MiB working set — twice the LLC — so every load
 * misses everywhere, evicts an LLC victim and churns the home-agent
 * directory (insert + erase per op).
 */
KernelResult
kernelDirectoryChurn(int reps, double min_seconds)
{
    MemorySystem mem(quietConfig());
    constexpr PAddr base = 0x100'0000;
    constexpr PAddr span = 24u << 20;
    Tick now = 0;
    PAddr offset = 0;
    for (PAddr a = 0; a < span; a += 64) {   // reach steady state
        now += 1'000;
        mem.load(0, base + a, now);
    }
    return measureKernel(
        "directory_churn", reps, min_seconds,
        [&mem, &now, &offset](std::uint64_t &ops,
                              std::uint64_t &vcycles) {
            for (int i = 0; i < 256; ++i) {
                now += 1'000;
                vcycles += static_cast<std::uint64_t>(
                    mem.load(0, base + offset, now).latency);
                offset = (offset + 64) % span;
            }
            ops += 256;
        });
}

/**
 * End-to-end wall clock of the `fig08-sweep` preset on one worker:
 * the full stack (config resolution, calibration, channel runs) as a
 * user actually exercises it. One op = one grid cell.
 */
KernelResult
kernelFig08EndToEnd()
{
    ConfigResolver resolver;
    resolver.applyOverride("system.seed", "2018", "default");
    resolver.applyPreset("fig08-sweep");
    const ExperimentSpec &base = resolver.spec();
    base.validate();

    const CalibrationResult cal = calibrate(base.channel.system, 400);
    Rng rng(8);
    const BitString payload = randomBits(rng, base.payloadBits());
    const std::vector<ExperimentSpec> grid = expandGrid(base);

    const Clock::time_point start = Clock::now();
    for (const ExperimentSpec &point : grid) {
        runExperiment(point, &cal, &payload);
    }
    KernelResult r;
    r.name = "fig08_e2e";
    r.seconds = secondsSince(start);
    r.ops = grid.size();
    r.opsPerSec = static_cast<double>(r.ops) / r.seconds;
    r.cyclesPerOp = 0.0;
    return r;
}

/** Backend of the spin-only kernels, which never touch memory. */
class NoMemory : public MemoryBackend
{
  public:
    AccessResult
    load(ThreadId, CoreId, VAddr, Tick) override
    {
        panic("spin kernel issued a load");
    }
    AccessResult
    store(ThreadId, CoreId, VAddr, Tick) override
    {
        panic("spin kernel issued a store");
    }
    AccessResult
    flush(ThreadId, CoreId, VAddr, Tick) override
    {
        panic("spin kernel issued a flush");
    }
};

Task
spinLoop(ThreadApi api, std::uint64_t ops, Tick cycles)
{
    for (std::uint64_t i = 0; i < ops; ++i)
        co_await api.spin(cycles);
}

/**
 * @p threads threads, one per core, each spinning a fixed number of
 * ops: the scheduler's pick/resume loop with no memory traffic. One
 * op = one spin; every thread must end at exactly ops x spin cycles.
 */
KernelResult
kernelSchedSpin(int threads, int reps, double min_seconds)
{
    constexpr Tick spin = 100;
    constexpr std::uint64_t per_thread = 2'000;
    NoMemory backend;
    return measureKernel(
        msgCat("sched_spin_t", threads), reps, min_seconds,
        [&backend, threads](std::uint64_t &ops,
                            std::uint64_t &vcycles) {
            Scheduler sched(&backend, threads);
            for (int t = 0; t < threads; ++t) {
                sched.spawn("spin", t, 0, [](ThreadApi api) {
                    return spinLoop(api, per_thread, spin);
                });
            }
            sched.run();
            for (const auto &t : sched.threads()) {
                fatal_if(!t->finished || t->now != per_thread * spin,
                         "sched_spin_t", threads, ": thread ended at "
                         "cycle ", t->now, ", expected ",
                         per_thread * spin);
            }
            const auto n =
                per_thread * static_cast<std::uint64_t>(threads);
            ops += n;
            vcycles += n * spin;
        });
}

/** Control byte of the idle-poll kernel's pollers. */
enum class PollMode : std::uint8_t
{
    idle,
    poke,
    stop,
};

/** Wait on @p mode, acknowledging every poke, until told to stop. */
Task
idlePoller(ThreadApi api, PollMode *mode, Tick poll,
           std::uint64_t *acks)
{
    for (;;) {
        co_await api.spinWhile(mode, PollMode::idle, poll);
        if (*mode == PollMode::stop)
            co_return;
        *mode = PollMode::idle;
        ++*acks;
    }
}

/**
 * Four spinWhile pollers, each alone on its core, and one writer on
 * a fifth core that pokes every poller each `gap` cycles and stops
 * them after `rounds` pokes: the scheduler's fast-forward of parked
 * pollers, as the channel's idle placer loaders use it. One op = one
 * poll. The writer has the highest thread id, so a poke at a poll
 * boundary is seen one poll later: every poller must end at exactly
 * (rounds + 1) x gap + poll, with one acknowledgement per poke.
 */
KernelResult
kernelSchedIdlePoll(int reps, double min_seconds)
{
    static constexpr int pollers = 4;
    static constexpr Tick poll = 80;
    static constexpr Tick gap = 1'000 * poll;
    static constexpr std::uint64_t rounds = 200;
    static constexpr Tick end = (rounds + 1) * gap + poll;
    NoMemory backend;
    return measureKernel(
        "sched_idle_poll", reps, min_seconds,
        [&backend](std::uint64_t &ops, std::uint64_t &vcycles) {
            Scheduler sched(&backend, pollers + 1);
            PollMode modes[pollers] = {};
            std::uint64_t acks[pollers] = {};
            for (int k = 0; k < pollers; ++k) {
                sched.spawn("poller", k, 0,
                            [m = &modes[k], a = &acks[k]](ThreadApi api) {
                                return idlePoller(api, m, poll, a);
                            });
            }
            sched.spawn("writer", pollers, 0,
                        [&modes](ThreadApi api) -> Task {
                            for (std::uint64_t r = 1; r <= rounds + 1;
                                 ++r) {
                                co_await api.spinUntil(r * gap);
                                for (PollMode &m : modes) {
                                    m = r <= rounds ? PollMode::poke
                                                    : PollMode::stop;
                                }
                            }
                        });
            sched.run();
            for (int k = 0; k < pollers; ++k) {
                const SimThread &t = *sched.threads()[k];
                fatal_if(!t.finished || t.now != end ||
                             acks[k] != rounds,
                         "sched_idle_poll: poller ", k, " ended at "
                         "cycle ", t.now, " after ", acks[k],
                         " pokes, expected ", end, " after ", rounds);
            }
            const auto n = pollers * (end / poll);
            ops += n;
            vcycles += n * poll;
        });
}

/**
 * Per-kernel self-profile: re-run each mem kernel briefly off then
 * on and report the sampled span breakdown plus the
 * enabled-vs-disabled throughput overhead. Runs *after* the gated
 * measurements, so the baseline numbers are never taken with
 * instrumentation live.
 */
struct KernelProfile
{
    std::string name;
    double overhead = 0.0;  //!< profiled-on slowdown (fraction)
    /** Sampled spans: (span name, samples, mean vcycles/sample). */
    std::vector<std::tuple<std::string, std::uint64_t, double>> spans;
};

std::vector<KernelProfile>
profileKernels(double min_seconds)
{
    using Fn = KernelResult (*)(int, double);
    static const std::pair<const char *, Fn> kernels[] = {
        {"l1_hit_load", kernelL1HitLoad},
        {"llc_serve_load", kernelLlcServeLoad},
        {"remote_owner_forward", kernelRemoteOwnerForward},
        {"flush_reload_cycle", kernelFlushReloadCycle},
        {"directory_churn", kernelDirectoryChurn},
    };
    static const char *const span_names[] = {"mem.load", "mem.store",
                                             "mem.flush"};
    std::vector<KernelProfile> out;
    for (const auto &[name, fn] : kernels) {
        // The overhead compares a back-to-back off/on pair measured
        // identically (same reps, same budget) — reusing the gated
        // numbers from minutes earlier would fold cache/turbo drift
        // into what should be pure instrumentation cost. Full rep
        // budgets: at short budgets scheduler noise (±10-20%) drowns
        // the sub-5% signal this breakdown exists to report.
        const KernelResult reference = fn(3, min_seconds);

        Profiler::setEnabled(true);
        Profiler::instance().reset();
        const KernelResult profiled = fn(3, min_seconds);
        const ProfileSnapshot snap = Profiler::instance().snapshot();
        Profiler::setEnabled(false);

        KernelProfile p;
        p.name = name;
        if (profiled.opsPerSec > 0.0)
            p.overhead = reference.opsPerSec / profiled.opsPerSec - 1.0;
        for (const char *span : span_names) {
            const SpanStats s = snap.totalOf(span);
            if (s.count == 0)
                continue;
            p.spans.emplace_back(
                span, s.count,
                static_cast<double>(s.vcycles) /
                    static_cast<double>(s.count));
        }
        out.push_back(std::move(p));
    }
    return out;
}

Json
toJson(const std::vector<KernelResult> &results)
{
    Json root = Json::object();
    root["schema"] = "cohersim.perf.v1";
    Json &kernels = root["kernels"];
    kernels = Json::array();
    for (const KernelResult &r : results) {
        Json k = Json::object();
        k["name"] = r.name;
        k["ops_per_sec"] = r.opsPerSec;
        k["cycles_per_op"] = r.cyclesPerOp;
        k["ops"] = r.ops;
        k["seconds"] = r.seconds;
        kernels.push(std::move(k));
    }
    return root;
}

double
baselineOpsPerSec(const Json &baseline, const std::string &name)
{
    const Json *kernels = baseline.find("kernels");
    if (!kernels)
        return 0.0;
    for (const Json &k : kernels->items()) {
        const Json *kname = k.find("name");
        const Json *ops = k.find("ops_per_sec");
        if (kname && ops && kname->asString() == name)
            return ops->asDouble();
    }
    return 0.0;
}

/**
 * Gate @p now against @p baseline: scale every baseline figure by the
 * measured host_ref ratio, then fail any kernel slower than
 * (1 - tolerance) of its scaled baseline.
 */
int
checkAgainstBaseline(const std::vector<KernelResult> &now,
                     const Json &baseline, double tolerance)
{
    const double base_ref = baselineOpsPerSec(baseline, "host_ref");
    double now_ref = 0.0;
    for (const KernelResult &r : now) {
        if (r.name == "host_ref")
            now_ref = r.opsPerSec;
    }
    if (base_ref <= 0.0 || now_ref <= 0.0) {
        std::cerr << "perf_suite: baseline or current run lacks the "
                     "host_ref kernel; cannot normalise\n";
        return 2;
    }
    const double scale = now_ref / base_ref;
    std::cout << "\nhost_ref scale vs baseline: "
              << TablePrinter::num(scale, 3) << "x; tolerance "
              << TablePrinter::pct(tolerance) << "\n\n";

    TablePrinter table;
    table.row({"kernel", "baseline ops/s", "scaled floor",
               "now ops/s", "ratio", "status"});
    int failures = 0;
    for (const KernelResult &r : now) {
        if (r.name == "host_ref")
            continue;
        const double base_ops = baselineOpsPerSec(baseline, r.name);
        if (base_ops <= 0.0) {
            table.row({r.name, "-", "-",
                       TablePrinter::num(r.opsPerSec, 0), "-",
                       "NEW (no baseline)"});
            continue;
        }
        const double floor = base_ops * scale * (1.0 - tolerance);
        const double ratio = r.opsPerSec / (base_ops * scale);
        const bool ok = r.opsPerSec >= floor;
        if (!ok)
            ++failures;
        table.row({r.name, TablePrinter::num(base_ops, 0),
                   TablePrinter::num(floor, 0),
                   TablePrinter::num(r.opsPerSec, 0),
                   TablePrinter::num(ratio, 2) + "x",
                   ok ? "ok" : "REGRESSION"});
    }
    table.print(std::cout);
    if (failures > 0) {
        std::cout << "\n" << failures
                  << " kernel(s) regressed beyond tolerance\n";
        return 1;
    }
    std::cout << "\nall kernels within tolerance\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csim;

    std::string json_path = "BENCH_perf.json";
    std::string baseline_path;
    double tolerance = 0.25;
    double min_seconds = 0.25;
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("perf_suite: ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--json") {
            json_path = next();
        } else if (arg == "--check") {
            baseline_path = next();
        } else if (arg == "--tolerance") {
            tolerance = std::stod(next());
        } else if (arg == "--min-time") {
            min_seconds = std::stod(next());
        } else if (arg == "--reps") {
            reps = std::stoi(next());
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: perf_suite [--json PATH] "
                   "[--check BASELINE.json] [--tolerance F]\n"
                   "                  [--min-time SECONDS] "
                   "[--reps N]\n";
            return 0;
        } else {
            fatal("perf_suite: unknown argument ", arg);
        }
    }

    std::cout << "== CoherSim steady-state performance suite ==\n\n";

    std::vector<KernelResult> results;
    results.push_back(kernelHostRef(reps, min_seconds));
    results.push_back(kernelL1HitLoad(reps, min_seconds));
    results.push_back(kernelLlcServeLoad(reps, min_seconds));
    results.push_back(kernelRemoteOwnerForward(reps, min_seconds));
    results.push_back(kernelFlushReloadCycle(reps, min_seconds));
    results.push_back(kernelDirectoryChurn(reps, min_seconds));
    results.push_back(kernelFig08EndToEnd());
    results.push_back(kernelSchedSpin(4, reps, min_seconds));
    results.push_back(kernelSchedSpin(48, reps, min_seconds));
    results.push_back(kernelSchedIdlePoll(reps, min_seconds));

    TablePrinter table;
    table.row({"kernel", "ops/sec", "ns/op", "virt cycles/op"});
    for (const KernelResult &r : results) {
        table.row({r.name, TablePrinter::num(r.opsPerSec, 0),
                   TablePrinter::num(1e9 / r.opsPerSec, 1),
                   TablePrinter::num(r.cyclesPerOp, 1)});
    }
    table.print(std::cout);

    // Per-kernel span breakdown (profiler on, sampled 1/stride).
    const std::vector<KernelProfile> profiles =
        profileKernels(min_seconds);
    std::cout << "\nself-profile (sample stride "
              << Profiler::sampleStride << "):\n";
    TablePrinter prof_table;
    prof_table.row({"kernel", "overhead", "span", "samples",
                    "virt cycles/sample"});
    for (const KernelProfile &p : profiles) {
        bool first = true;
        for (const auto &[span, samples, vc] : p.spans) {
            prof_table.row(
                {first ? p.name : "",
                 first ? TablePrinter::pct(p.overhead) : "", span,
                 std::to_string(samples), TablePrinter::num(vc, 1)});
            first = false;
        }
        if (first)
            prof_table.row({p.name, TablePrinter::pct(p.overhead),
                            "-", "-", "-"});
    }
    prof_table.print(std::cout);

    Json doc = toJson(results);
    Json prof_json = Json::array();
    for (const KernelProfile &p : profiles) {
        Json k = Json::object();
        k["name"] = p.name;
        k["overhead"] = p.overhead;
        Json spans = Json::array();
        for (const auto &[span, samples, vc] : p.spans) {
            Json s = Json::object();
            s["span"] = span;
            s["samples"] = samples;
            s["vcycles_per_sample"] = vc;
            spans.push(std::move(s));
        }
        k["spans"] = std::move(spans);
        prof_json.push(std::move(k));
    }
    doc["profile"] = std::move(prof_json);
    writeJsonFile(json_path, doc);
    std::cout << "\n[" << json_path << " written]\n";

    if (!baseline_path.empty())
        return checkAgainstBaseline(results,
                                    readJsonFile(baseline_path),
                                    tolerance);
    return 0;
}
