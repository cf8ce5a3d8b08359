/**
 * @file
 * The CoherSim benchmark driver. Runs one workload (see workloads.hh
 * and perfbench/README.md) through the public ConfigResolver /
 * runExperiment API and prints every metric by name with its unit,
 * then one JSON result line:
 *
 *   cohersim_perfbench --workload sweep|fleet|defended
 *                      [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 repeats the untraced workload for S seconds and reports
 * the end-to-end metrics (medians over the repetitions). --trace 1
 * runs the workload untraced, then once more with the self-profiler
 * on, plus the layer probes, and reports the per-layer metrics. The
 * simulated outputs of every run are digested; the digests must agree
 * across repetitions, worker counts and tracing, or the run fails.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

#include "bench_util.hh"
#include "cohersim/harness.hh"
#include "cohersim/observe.hh"
#include "probes.hh"
#include "workloads.hh"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace csim;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
assertionsOn()
{
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

/** Build settings; runs compare only when these are identical. */
Json
buildInfo()
{
    Json b = Json::object();
    b["build_type"] = PERFBENCH_BUILD_TYPE;
    b["cxx_flags"] = PERFBENCH_CXX_FLAGS;
    b["assertions"] = assertionsOn();
    b["compiler"] = __VERSION__;
    return b;
}

Json
hostInfo()
{
    Json h = Json::object();
    h["nproc"] = static_cast<std::int64_t>(
        std::thread::hardware_concurrency());
    double load[3] = {0, 0, 0};
    Json l = Json::array();
    if (getloadavg(load, 3) == 3) {
        for (double v : load)
            l.push(v);
    }
    h["loadavg"] = std::move(l);
    return h;
}

/** One run of every cell of a workload. */
struct Pass
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<double> cellMs;
    double busyFrac = 0.0;
    double tailIdleMs = 0.0;
    std::vector<CellOutcome> outcomes;
    Digest digest;
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> errors;
};

Pass
runPass(const Setup &setup, int workers, bool traced)
{
    const std::size_t n = setup.cells.size();
    Pass p;
    p.outcomes.resize(n);
    std::vector<Clock::time_point> begin(n), end(n);
    std::vector<std::thread::id> worker(n);

    RunnerOptions opts;
    opts.jobs = workers;
    SweepRunner runner(opts);
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    runner.run(n, [&](std::size_t i) {
        begin[i] = Clock::now();
        p.outcomes[i] = runCell(setup.cells[i], traced);
        end[i] = Clock::now();
        worker[i] = std::this_thread::get_id();
    });
    const Clock::time_point t1 = Clock::now();
    p.cpuS = cpuSeconds() - cpu0;
    p.wallS = secondsBetween(t0, t1);

    // The runner's tail: from the first worker running out of cells
    // to the end of the run (the whole run when a worker got none).
    std::map<std::thread::id, Clock::time_point> last_end;
    double busy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double ms = secondsBetween(begin[i], end[i]) * 1e3;
        p.cellMs.push_back(ms);
        busy += ms / 1e3;
        auto [it, fresh] = last_end.emplace(worker[i], end[i]);
        if (!fresh && end[i] > it->second)
            it->second = end[i];
    }
    Clock::time_point first_idle = t1;
    for (const auto &[id, at] : last_end)
        first_idle = std::min(first_idle, at);
    if (static_cast<int>(last_end.size()) < runner.jobs())
        first_idle = t0;
    p.tailIdleMs = secondsBetween(first_idle, t1) * 1e3;
    p.busyFrac = busy / (runner.jobs() * p.wallS);

    for (const CellOutcome &o : p.outcomes) {
        p.digest.addU64(o.digest);
        p.attempted += o.operations;
        if (!o.error.empty()) {
            p.failed += o.operations;
            p.errors.push_back(o.error);
        }
    }
    return p;
}

/** Cells whose digest differs from @p ref count as failed ops. */
int
mismatchedOps(const Pass &ref, const Pass &p)
{
    int bad = 0;
    for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
        if (p.outcomes[i].digest != ref.outcomes[i].digest &&
            p.outcomes[i].error.empty()) {
            bad += p.outcomes[i].operations;
        }
    }
    return bad;
}

/** @p j on one line: Json escapes newlines inside strings, so every
 *  raw newline of its dump is layout. */
std::string
oneLine(const Json &j)
{
    std::string s = j.dump();
    std::replace(s.begin(), s.end(), '\n', ' ');
    return s;
}

/** Prints "name value unit" lines and collects the JSON metrics. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit,
           bool in_json = true)
    {
        std::cout << "metric " << name << ' ' << value << ' ' << unit
                  << (in_json ? "" : "  (text only)") << '\n';
        if (!in_json)
            return;
        Json m = Json::object();
        m["value"] = value;
        m["unit"] = unit;
        metrics_[name] = std::move(m);
    }

    Json &metrics() { return metrics_; }

  private:
    Json metrics_ = Json::object();
};

/** The traced pass's cells summed into one outcome. */
CellOutcome
sumOutcomes(const Pass &p)
{
    CellOutcome t;
    for (const CellOutcome &o : p.outcomes) {
        t.payloadBits += o.payloadBits;
        t.correctBits += o.correctBits;
        t.wireBits += o.wireBits;
        t.txCycles += o.txCycles;
        t.clockGhz = o.clockGhz;
        t.accurateBits += o.accurateBits;
        t.safetyStops += o.safetyStops;
        t.nacks += o.nacks;
        t.retransmits += o.retransmits;
        t.fecUncorrectable += o.fecUncorrectable;
        t.fleetCycles += o.fleetCycles;
        t.detectEvents += o.detectEvents;
        t.counters.merge(o.counters);
    }
    return t;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

bool
isRunSpan(const std::string &name)
{
    return name == "rig.run" || name == "rig.decode" ||
           name == "experiment.fleet" || name.rfind("phy.", 0) == 0;
}

/**
 * Wall ns of the outermost spans named like @p match: a span nested
 * in another matching span is already counted by its ancestor.
 */
template <typename Match>
double
outermostMs(const ProfileSnapshot &snap, Match &&match)
{
    double ns = 0.0;
    for (const ProfileEntry &e : snap.entries) {
        std::vector<std::string> parts;
        std::size_t from = 0;
        while (true) {
            const std::size_t slash = e.path.find('/', from);
            parts.push_back(e.path.substr(from, slash - from));
            if (slash == std::string::npos)
                break;
            from = slash + 1;
        }
        if (!match(parts.back()))
            continue;
        bool nested = false;
        for (std::size_t i = 0; i + 1 < parts.size(); ++i)
            nested = nested || match(parts[i]);
        if (!nested)
            ns += static_cast<double>(e.stats.wallNs);
    }
    return ns / 1e6;
}

double
spanMs(const ProfileSnapshot &snap, const std::string &name)
{
    return static_cast<double>(snap.totalOf(name).wallNs) / 1e6;
}

void
printPass(const char *what, const Pass &p, int workers)
{
    std::cout << "pass " << what << ": " << p.outcomes.size()
              << " cells on " << workers << " worker(s), "
              << p.wallS << " s wall, digest " << p.digest.hex() << '\n';
    for (const std::string &e : p.errors)
        std::cout << "FAILED " << e << '\n';
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 2018;
    double seconds = 10.0;
    int trace = 0;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = std::stoi(val);
        else
            throw std::invalid_argument("unknown argument " + key);
    }
    // Fleet machine seeds are seed * 6 + k; keep them in range.
    if (a.seed > (1ULL << 40))
        throw std::invalid_argument("--seed must be at most 2^40");
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace takes 0 or 1");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

/**
 * End-to-end metrics: untraced repetitions of set-up plus one pass
 * for about args.seconds (at least one). Set-up is timed
 * before every pass, so its samples spread over the run like the
 * passes' do; a cell's time is its median over the passes, which
 * keeps the cell percentiles over a fixed cell count.
 */
void
runUntraced(const Args &args, Report &rep, int &attempted, int &failed)
{
    std::vector<double> setup_s, wall, cpu;
    std::vector<std::vector<double>> cell_ms;
    std::optional<Pass> first;
    // A cheap set-up is timed several times per pass (at least 0.2 s
    // worth), so its median does not rest on a few short samples.
    double last_setup = 0.0;
    auto timed_setup = [&] {
        double spent = 0.0;
        Setup s;
        do {
            // Free the previous set-up first: peak RSS must not
            // depend on how many set-ups fit in 0.2 s.
            s = Setup();
            const Clock::time_point t0 = Clock::now();
            s = buildSetup(args.workload, args.seed);
            setup_s.push_back(secondsBetween(t0, Clock::now()));
            spent += setup_s.back();
        } while (spent < 0.2);
        last_setup = spent;
        return s;
    };
    const Clock::time_point start = Clock::now();
    do {
        const Setup setup = timed_setup();
        Pass p = runPass(setup, setup.workers, false);
        attempted += p.attempted;
        failed += p.failed;
        wall.push_back(p.wallS);
        cpu.push_back(p.cpuS);
        cell_ms.resize(p.cellMs.size());
        for (std::size_t i = 0; i < p.cellMs.size(); ++i)
            cell_ms[i].push_back(p.cellMs[i]);
        if (first) {
            failed += mismatchedOps(*first, p);
        } else {
            printPass("untraced", p, setup.workers);
            first = std::move(p);
        }
        // Start another repetition only if it ends at most half a
        // repetition past the deadline: every run measures about
        // --seconds, and a long pass still gets repeated.
    } while (secondsBetween(start, Clock::now()) +
                 (last_setup + wall.back()) / 2 <=
             args.seconds);
    while (setup_s.size() < 3)
        timed_setup();

    std::vector<double> cell_median;
    for (const std::vector<double> &c : cell_ms)
        cell_median.push_back(median(c));
    const int tail_pct = tailPercentile(cell_median.size());
    std::cout << "digest " << args.workload << ' ' << first->digest.hex()
              << " (" << cell_median.size() << " cells; all "
              << wall.size() << " repetitions must match it)\n";
    std::cout << "cells: " << cell_median.size()
              << ", each timed by its median over " << wall.size()
              << " repetitions; tail = p" << tail_pct << " over "
              << cell_median.size() << " cells; set-up median of "
              << setup_s.size() << '\n';
    rep.metric("wall_s", median(wall), "s");
    rep.metric("cpu_s", median(cpu), "s");
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("cell_p50_ms", median(cell_median), "ms");
    rep.metric("cell_tail_ms", percentile(cell_median, tail_pct), "ms");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
}

/** Per-layer metrics: one traced run plus the layer probes. */
void
runTraced(const Args &args, Report &rep, int &attempted, int &failed)
{
    const Setup setup = buildSetup(args.workload, args.seed);
    const Pass untraced = runPass(setup, setup.workers, false);
    printPass("untraced", untraced, setup.workers);
    std::vector<const Pass *> checks = {&untraced};
    std::optional<Pass> serial;
    if (setup.workers > 1) {
        serial = runPass(setup, 1, false);
        printPass("untraced", *serial, 1);
        checks.push_back(&*serial);
    }
    const Pass &baseline = serial ? *serial : untraced;

    // The traced run: set-up and every cell on one worker, under the
    // program's spans and the benchmark's own.
    Profiler::setEnabled(true);
    Profiler::instance().reset();
    const Clock::time_point t0 = Clock::now();
    const Setup traced_setup = buildSetup(args.workload, args.seed);
    const Pass traced = runPass(traced_setup, 1, true);
    const Clock::time_point t1 = Clock::now();
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    Profiler::setEnabled(false);
    printPass("traced", traced, 1);
    checks.push_back(&traced);

    for (const Pass *p : checks) {
        attempted += p->attempted;
        failed += p->failed + mismatchedOps(untraced, *p);
    }
    std::cout << "digest " << args.workload << ' ' << untraced.digest.hex()
              << " (untraced, 1-worker and traced runs must agree)\n";

    const std::vector<ProbeResult> probes = runProbes(args.seed, 0.25);

    std::cout << "\n-- span tree of the traced run --\n";
    renderProfile(std::cout, snap);
    std::cout << '\n';

    const CellOutcome t = sumOutcomes(traced);
    const CounterRegistry &c = t.counters;
    const double bits = static_cast<double>(t.payloadBits);
    const double traced_ms = secondsBetween(t0, t1) * 1e3;

    rep.metric("config.resolve_ms", traced_setup.resolveMs, "ms");
    rep.metric("runner.busy_frac", untraced.busyFrac, "frac");
    rep.metric("runner.tail_idle_ms", untraced.tailIdleMs, "ms");

    const double cell_ms = spanMs(snap, "bench.cell");
    const double run_ms = outermostMs(snap, [](const std::string &s) {
        return s == "rig.run" || s == "experiment.fleet";
    });
    rep.metric("channel.calibrate_ms", traced_setup.calibrateMs, "ms");
    rep.metric("channel.calibrations",
               static_cast<double>(traced_setup.cals.size()), "count");
    rep.metric("channel.cell_setup_ms",
               cell_ms - outermostMs(snap, isRunSpan), "ms");
    rep.metric("channel.decode_ms", spanMs(snap, "rig.decode"), "ms",
               false);
    rep.metric("channel.safety_stops",
               static_cast<double>(t.safetyStops), "count");
    rep.metric("channel.retransmits",
               static_cast<double>(t.retransmits), "count");
    rep.metric("channel.nacks", static_cast<double>(t.nacks),
               "count");
    rep.metric("channel.accuracy_pct",
               100.0 * ratio(t.accurateBits, bits), "%");
    rep.metric("channel.goodput_kbps",
               goodputKbps(t.correctBits, t.txCycles,
                           t.clockGhz),
               "kbit/s");
    rep.metric("channel.useful_bit_ratio",
               ratio(static_cast<double>(t.correctBits),
                     static_cast<double>(t.wireBits)),
               "ratio");

    const double vcycles =
        static_cast<double>(snap.totalOf("rig.run").vcycles +
                            t.fleetCycles);
    rep.metric("sim.run_ms", run_ms, "ms");
    rep.metric("sim.vcycles", vcycles, "cycles");
    rep.metric("sim.host_ns_per_vcycle", ratio(run_ms * 1e6, vcycles),
               "ns/cycle");

    const double mem_ops =
        static_cast<double>(c.value("mem.loads") + c.value("mem.stores") +
                            c.value("mem.flushes"));
    rep.metric("mem.ops", mem_ops, "count");
    rep.metric("mem.ops_per_bit", ratio(mem_ops, bits), "ops/bit");
    rep.metric("mem.private_hit_frac",
               ratio(static_cast<double>(c.value("mem.l1_hits") +
                                         c.value("mem.l2_hits")),
                     static_cast<double>(c.value("mem.loads"))),
               "frac");
    rep.metric("mem.queue_wait_cycles",
               static_cast<double>(c.value("link.queue_wait_cycles")),
               "cycles");
    rep.metric("mem.remote_forwards",
               static_cast<double>(c.value("coh.remote_owner_forwards")),
               "count");
    rep.metric("mem.writebacks",
               static_cast<double>(c.value("coh.writebacks")), "count");
    rep.metric("mem.back_invalidations",
               static_cast<double>(c.value("coh.back_invalidations")),
               "count");
    SpanStats sampled;
    for (const char *s : {"mem.load", "mem.store", "mem.flush"})
        sampled.merge(snap.totalOf(s));
    rep.metric("mem.sampled_ops",
               static_cast<double>(sampled.count * Profiler::sampleStride),
               "count");
    rep.metric("mem.sampled_vcycles_per_op",
               ratio(static_cast<double>(sampled.vcycles),
                     static_cast<double>(sampled.count)),
               "cycles");
    for (const ProbeResult &p : probes)
        rep.metric(p.name, p.nsPerOp, "ns");

    rep.metric("os.ksm_pages_scanned",
               static_cast<double>(c.value("ksm.pages_scanned")), "count");
    rep.metric("os.ksm_pages_merged",
               static_cast<double>(c.value("ksm.pages_merged")), "count");
    rep.metric("os.cow_faults", static_cast<double>(c.value("os.cow_faults")),
               "count");
    rep.metric("detect.events_observed",
               static_cast<double>(t.detectEvents), "count");
    rep.metric("phy.encode_ms", spanMs(snap, "phy.encode"), "ms", false);
    rep.metric("phy.decode_ms",
               spanMs(snap, "phy.decode.header") +
                   spanMs(snap, "phy.decode.body") +
                   spanMs(snap, "phy.finalize"),
               "ms", false);
    rep.metric("phy.fec_uncorrectable",
               static_cast<double>(t.fecUncorrectable), "count");
    const double published =
        static_cast<double>(c.value("trace.published"));
    rep.metric("trace.published", published, "count");
    rep.metric("trace.published_per_bit", ratio(published, bits),
               "events/bit");

    double top_ms = 0.0;
    for (const ProfileEntry &e : snap.entries) {
        if (e.depth == 0)
            top_ms += static_cast<double>(e.stats.wallNs) / 1e6;
    }
    rep.metric("unattributed_ms", traced_ms - top_ms, "ms");
    rep.metric("tracing_overhead_frac",
               traced.wallS / baseline.wallS - 1.0, "frac");
}

} // namespace

int
main(int argc, char **argv)
{
    logging_detail::quiet = true;
    Args args;
    try {
        args = parseArgs(argc, argv);
        if (std::find(workloadNames().begin(), workloadNames().end(),
                      args.workload) == workloadNames().end()) {
            throw std::invalid_argument("--workload must be one of "
                                        "sweep, fleet, defended");
        }
    } catch (const std::exception &e) {
        std::cerr << "cohersim_perfbench: " << e.what() << '\n';
        return 2;
    }

    Json context = Json::object();
    context["workload"] = args.workload;
    context["seed"] = static_cast<std::int64_t>(args.seed);
    context["trace"] = args.trace;
    context["build"] = buildInfo();
    context["host"] = hostInfo();
    std::cout << "context " << oneLine(context) << '\n';

    Report rep;
    int attempted = 0;
    int failed = 0;
    try {
        if (args.trace)
            runTraced(args, rep, attempted, failed);
        else
            runUntraced(args, rep, attempted, failed);
    } catch (const std::exception &e) {
        std::cerr << "cohersim_perfbench: " << e.what() << '\n';
        return 1;
    }

    Json result = Json::object();
    result["correct"] = failed == 0;
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["metrics"] = std::move(rep.metrics());
    std::cout << oneLine(result) << '\n';
    return failed == 0 ? 0 : 1;
}
