#include "workloads.hh"

#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

#include "bench_util.hh"

namespace perfbench
{

using namespace csim;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/**
 * Machine seed of the sweep and defended grids: the seed every
 * bench in bench/ uses. --seed picks what those machines transmit,
 * not the machines: a simulated machine's seed decides whether a
 * defended cell stalls to its safety stop, which swings the grid's
 * host time by half from one machine seed to the next.
 */
constexpr std::uint64_t kMachineSeed = 2018;

ConfigResolver
seededResolver(std::uint64_t machine_seed)
{
    ConfigResolver r;
    r.applyOverride("system.seed", std::to_string(machine_seed),
                    "bench");
    return r;
}

/** Random payload @p stream of @p seed, owned by @p setup. */
const BitString *
addPayload(Setup &setup, std::uint64_t seed, std::uint64_t stream,
           std::size_t bits)
{
    Rng rng(deriveSeed(seed, stream));
    setup.payloads.push_back(randomBits(rng, bits));
    return &setup.payloads.back();
}

void
addGrid(Setup &setup, const std::string &name,
        const ExperimentSpec &base, const BitString *payload)
{
    base.validate();
    for (const ExperimentSpec &point : expandGrid(base)) {
        Cell c;
        c.label = msgCat(name, '/',
                         scenarioInfo(point.channel.scenario).notation,
                         '/', point.rateKbps, "K/n",
                         point.channel.noiseThreads);
        c.spec = point;
        c.payload = payload;
        setup.cells.push_back(std::move(c));
    }
}

/** Fig. 8 and Fig. 9 grids: 60 + 36 short single-pair runs. */
void
sweepCells(Setup &setup, std::uint64_t seed)
{
    setup.workers = 2;
    const char *presets[] = {"fig08-sweep", "fig09-noise"};
    for (std::uint64_t i = 0; i < 2; ++i) {
        ConfigResolver r = seededResolver(kMachineSeed);
        r.applyPreset(presets[i]);
        addGrid(setup, presets[i], r.spec(),
                addPayload(setup, seed, i, r.spec().payloadBits()));
    }
}

/**
 * Half of fleet-heavy (8 pairs + 4 noise agents on 2x16 cores), six
 * times over with machine seeds seed*6 .. seed*6+5: the fleet driver
 * derives its pairs' payloads from the machine seed, so here --seed
 * must pick machines. One fleet's host time swings with its seed (a
 * pair that never finishes runs the machine to the safety stop);
 * six of them keep a pass steady across seeds.
 */
void
fleetCells(Setup &setup, std::uint64_t seed)
{
    constexpr std::uint64_t fleets = 6;
    for (std::uint64_t k = 0; k < fleets; ++k) {
        ConfigResolver r = seededResolver(seed * fleets + k);
        r.applyPreset("fleet-heavy");
        r.applyOverride("fleet.pairs", "8", "bench");
        r.applyOverride("fleet.noise_agents", "4", "bench");
        r.spec().validate();
        Cell c;
        c.label = msgCat("fleet-heavy/8p4n/seed", seed * fleets + k);
        c.spec = r.spec();
        setup.cells.push_back(std::move(c));
    }
}

/** Same setup for the vector grid as bench/vector_matrix. */
ExperimentSpec
vectorSpec(const ExperimentSpec &base, VectorKind kind)
{
    ExperimentSpec spec = base;
    if (kind == VectorKind::coherence) {
        spec.rateKbps = 500;
        spec.timeoutMargin = 20;
        spec.payload.bits = 64;
        return spec;
    }
    applyPreset(spec,
                *findPreset(std::string(vectorName(kind)) + "-quick"));
    return spec;
}

/**
 * Defense matrix (3 scenarios x 6 defences, KSM sharing), vector
 * matrix (4 vectors x noise {0,2}) and PHY profiles (3 x noise
 * {0,4}, 512 bits), each cell watched by CC-Hunter: 32 cells per
 * payload set, two payload sets per pass.
 */
void
defendedCells(Setup &setup, std::uint64_t seed)
{
    constexpr std::uint64_t payload_sets = 2;
    for (std::uint64_t set = 0; set < payload_sets; ++set) {
        const std::uint64_t pseed = seed * payload_sets + set;
        const std::string tag = msgCat("/p", pseed);
        {
            ConfigResolver r = seededResolver(kMachineSeed);
            r.applyOverride("channel.sharing", "ksm", "bench");
            r.applyOverride("payload.bits", "120", "bench");
            r.applyOverride("channel.timeout_margin", "20", "bench");
            const ExperimentSpec base = r.spec();
            base.validate();
            const BitString *payload = addPayload(setup, pseed, 0, 120);
            std::vector<const Preset *> defenses = {nullptr};
            for (const Preset *p : presetsWithPrefix("mitigation-"))
                defenses.push_back(p);
            defenses.push_back(findPreset("defense-remap"));
            defenses.push_back(findPreset("defense-mirage"));
            for (Scenario sc : {Scenario::lexcC_lshB,
                                Scenario::rexcC_lshB,
                                Scenario::rshC_lshB}) {
                for (const Preset *d : defenses) {
                    Cell c;
                    c.spec = base;
                    c.spec.channel.scenario = sc;
                    if (d)
                        applyPreset(c.spec, *d);
                    c.spec.validate();
                    c.label = msgCat("defense/", scenarioInfo(sc).notation,
                                     '/', d ? d->name : "none", tag);
                    c.payload = payload;
                    c.detect = true;
                    setup.cells.push_back(std::move(c));
                }
            }
        }
        const ConfigResolver vr = seededResolver(kMachineSeed);
        std::uint64_t stream = 1;
        for (VectorKind kind :
             {VectorKind::coherence, VectorKind::dirty, VectorKind::lru,
              VectorKind::pagefault}) {
            const ExperimentSpec spec = vectorSpec(vr.spec(), kind);
            const BitString *payload =
                addPayload(setup, pseed, stream++, spec.payloadBits());
            for (int noise : {0, 2}) {
                Cell c;
                c.spec = spec;
                c.spec.channel.noiseThreads = noise;
                c.spec.validate();
                c.label = msgCat("vector/", vectorName(kind), "/n", noise,
                                 tag);
                c.payload = payload;
                c.detect = true;
                c.detector.trackEvictions = true;
                c.detector.evictionFoldBytes =
                    c.spec.channel.system.llc.numSets() * lineBytes;
                c.detector.trackFaults = true;
                setup.cells.push_back(std::move(c));
            }
        }
        ConfigResolver r = seededResolver(kMachineSeed);
        r.applyPreset("phy-quick");
        r.applyOverride("channel.rate_kbps", "550", "bench");
        r.applyOverride("payload.bits", "512", "bench");
        r.applyOverride("channel.timeout_margin", "25", "bench");
        const ExperimentSpec base = r.spec();
        const BitString *payload = addPayload(setup, pseed, stream, 512);
        for (PhyProfile profile :
             {PhyProfile::legacyParity, PhyProfile::hammingHard,
              PhyProfile::hammingSoft}) {
            for (int noise : {0, 4}) {
                Cell c;
                c.spec = base;
                c.spec.channel.phy.profile = profile;
                c.spec.channel.noiseThreads = noise;
                c.spec.validate();
                c.label = msgCat("phy/", phyProfileName(profile), "/n",
                                 noise, tag);
                c.payload = payload;
                c.detect = true;
                setup.cells.push_back(std::move(c));
            }
        }
    }
}

/** What calibration consumes: the machine after the llc-notify
 *  timing change, and the vector. */
ChannelConfig
calibrationConfig(const ExperimentSpec &spec)
{
    ChannelConfig cfg = spec.toChannelConfig();
    if (cfg.defense == Defense::llcNotify)
        cfg.system.timing.llcNotifiedOfUpgrade = true;
    // Calibrate at the default operating point, once per machine,
    // as bench/fig08 does, whatever rate a cell then runs at.
    cfg.params = ChannelParams{};
    return cfg;
}

std::string
calibrationKey(const ChannelConfig &cfg)
{
    ExperimentSpec probe;
    probe.channel.system = cfg.system;
    std::string key = vectorName(cfg.vector);
    for (const FieldDef &f : FieldRegistry::instance().fields()) {
        if (f.name.rfind("system.", 0) == 0 ||
            f.name.rfind("mem.", 0) == 0) {
            key += msgCat(';', f.name, '=', f.format(f.get(probe)));
        }
    }
    return key;
}

void
checkMetrics(const ChannelMetrics &m, const BitString &sent,
             const BitString &received, std::size_t payload_bits)
{
    auto bad = [](const std::string &what) {
        throw std::runtime_error("malformed output: " + what);
    };
    if (sent.size() != payload_bits)
        bad(msgCat("sent ", sent.size(), " bits, expected ",
                   payload_bits));
    if (m.bitsSent != sent.size() || m.bitsReceived != received.size())
        bad("metrics bit counts disagree with the bit strings");
    for (const BitString *s : {&sent, &received}) {
        for (std::uint8_t b : *s) {
            if (b > 1)
                bad("bit string holds a value other than 0/1");
        }
    }
    if (!(m.accuracy >= 0.0 && m.accuracy <= 1.0))
        bad(msgCat("accuracy ", m.accuracy, " outside [0,1]"));
    for (double v : {m.rawKbps, m.effectiveKbps, m.payloadKbps}) {
        if (!std::isfinite(v) || v < 0.0)
            bad(msgCat("rate ", v, " is not a finite rate"));
    }
}

void
addMetrics(Digest &d, const ChannelMetrics &m)
{
    d.addU64(m.pairId);
    d.addU64(m.bitsSent);
    d.addU64(m.bitsReceived);
    d.addDouble(m.accuracy);
    d.addU64(m.durationCycles);
    d.addDouble(m.rawKbps);
    d.addDouble(m.effectiveKbps);
    d.addDouble(m.payloadKbps);
    d.addU64(m.nacks);
    d.addU64(m.retransmits);
}

void
addVerdict(Digest &d, const LineVerdict &v)
{
    d.addU64(v.line);
    d.addU64(v.suspicious);
    d.addU64(v.flushes);
    d.addDouble(v.intervalCv);
    d.addDouble(v.alternation);
    d.addU64(v.flaggedAt);
}

void
addCounters(Digest &d, const CounterRegistry &reg)
{
    d.addU64(reg.size());
    for (const auto &[name, value] : reg.entries()) {
        d.addString(name);
        d.addU64(value);
    }
}

/** Score one pair's transmission into @p out (all drivers alike). */
void
addPair(CellOutcome &out, const ChannelMetrics &m, const BitString &sent,
        const BitString &received, bool completed, std::uint64_t wire)
{
    out.payloadBits += sent.size();
    out.correctBits += correctBits(sent, received);
    out.wireBits += wire;
    out.txCycles += m.durationCycles;
    out.accurateBits += m.accuracy * static_cast<double>(m.bitsSent);
    out.safetyStops += completed ? 0 : 1;
    out.nacks += m.nacks;
    out.retransmits += m.retransmits;
}

void
reduceFleet(CellOutcome &out, Digest &d, const ExperimentSpec &spec,
            const FleetReport &rep)
{
    if (rep.pairs.size() != static_cast<std::size_t>(spec.fleet.pairs))
        throw std::runtime_error("malformed output: fleet pair count");
    if (rep.durationCycles == 0)
        throw std::runtime_error("malformed output: no fleet time");
    for (const PairReport &p : rep.pairs) {
        checkMetrics(p.metrics, p.sent, p.received,
                     static_cast<std::size_t>(spec.payload.bits));
        addPair(out, p.metrics, p.sent, p.received, p.completed,
                p.metrics.bitsSent);
        d.addU64(p.pairId);
        d.addU64(static_cast<std::uint64_t>(p.scenario));
        d.addBits(p.sent);
        d.addBits(p.received);
        addMetrics(d, p.metrics);
        d.addU64(p.completed);
        d.addU64(p.sharedLine);
        addVerdict(d, p.detect);
    }
    addVerdict(d, rep.aggregate);
    d.addU64(static_cast<std::uint64_t>(rep.pairsFlagged));
    d.addU64(rep.completed);
    d.addU64(rep.durationCycles);
    out.fleetCycles = rep.durationCycles;
    out.counters = rep.counters;
}

void
reduceChannel(CellOutcome &out, Digest &d, const Cell &cell,
              const ExperimentResult &res)
{
    const ChannelReport &ch = res.channel;
    const std::size_t bits = cell.payload ? cell.payload->size()
                                          : cell.spec.payloadBits();
    checkMetrics(ch.metrics, ch.sent, ch.received, bits);
    if (ch.counters.value("mem.loads") + ch.counters.value("mem.stores") +
            ch.counters.value("mem.flushes") ==
        0) {
        throw std::runtime_error("malformed output: no mem operations");
    }
    std::uint64_t wire = ch.metrics.bitsSent;
    if (res.kind == ExperimentKind::phy) {
        const PhyReport &phy = res.phy;
        if (phy.payloadBits != bits || phy.delivered.size() > bits ||
            phy.residualErrors > bits) {
            throw std::runtime_error("malformed output: PHY report");
        }
        wire = phy.rawBitsSent;
        out.fecUncorrectable = phy.stages.fecUncorrectable;
        d.addU64(static_cast<std::uint64_t>(phy.frames));
        d.addU64(phy.rawBitsSent);
        d.addU64(phy.residualErrors);
        d.addU64(phy.durationCycles);
        d.addU64(static_cast<std::uint64_t>(phy.profileUsed));
        d.addU64(phy.stages.preambleLocks);
        d.addU64(phy.stages.framesAccepted);
        d.addU64(phy.stages.fecCorrected);
        d.addU64(phy.stages.fecUncorrectable);
    }
    addPair(out, ch.metrics, ch.sent, ch.received, ch.completed, wire);
    d.addBits(ch.sent);
    d.addBits(ch.received);
    addMetrics(d, ch.metrics);
    d.addU64(ch.completed);
    d.addU64(ch.shared.paddr);
    out.counters = ch.counters;
}

} // namespace

void
MemEventTap::attach(TraceBus &bus, int)
{
    bus_ = &bus;
    sub_ = bus.subscribe(categoryBit(TraceCategory::mem), onEvent);
}

void
MemEventTap::detach()
{
    if (bus_)
        bus_->unsubscribe(sub_);
    bus_ = nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep", "fleet",
                                                   "defended"};
    return names;
}

Setup
buildSetup(const std::string &workload, std::uint64_t seed)
{
    ScopedSpan setup_span("bench.setup");
    Setup setup;
    {
        ScopedSpan span("config.resolve");
        const Clock::time_point start = Clock::now();
        if (workload == "sweep")
            sweepCells(setup, seed);
        else if (workload == "fleet")
            fleetCells(setup, seed);
        else if (workload == "defended")
            defendedCells(setup, seed);
        else
            throw std::invalid_argument("unknown workload " + workload);
        setup.resolveMs = msSince(start);
    }
    ScopedSpan span("channel.calibrate");
    const Clock::time_point start = Clock::now();
    std::map<std::string, const CalibrationResult *> by_key;
    for (Cell &c : setup.cells) {
        const ChannelConfig cfg = calibrationConfig(c.spec);
        const CalibrationResult *&cal = by_key[calibrationKey(cfg)];
        if (!cal) {
            setup.cals.push_back(
                makeLeakageVector(cfg.vector)->calibrate(cfg));
            cal = &setup.cals.back();
        }
        c.cal = cal;
    }
    setup.calibrateMs = msSince(start);
    return setup;
}

CellOutcome
runCell(const Cell &cell, bool count_events)
{
    CellOutcome out;
    // A fleet cell's pairs fail together when it throws.
    if (cell.spec.fleet.pairs > 1)
        out.operations = static_cast<int>(cell.spec.fleet.pairs);
    Digest d;
    d.addString(cell.label);
    try {
        ScopedSpan span("bench.cell");
        ExperimentSpec spec = cell.spec;
        std::optional<CoherenceChannelDetector> det;
        if (cell.detect) {
            det.emplace(cell.detector);
            spec.channel.detector = &*det;
        }
        std::uint64_t fleet_events = 0;
        MemEventTap counter;
        counter.onEvent = [&fleet_events](const TraceEvent &) {
            ++fleet_events;
        };
        if (count_events && spec.fleet.pairs > 1)
            spec.channel.taps.push_back(&counter);
        const ExperimentResult res =
            runExperiment(spec, cell.cal, cell.payload);
        out.clockGhz = spec.channel.system.timing.clockGhz;
        d.addU64(static_cast<std::uint64_t>(res.kind));
        if (res.kind == ExperimentKind::fleet) {
            reduceFleet(out, d, spec, res.fleet);
            out.detectEvents = fleet_events;
        } else {
            reduceChannel(out, d, cell, res);
        }
        if (det) {
            out.detectEvents = det->eventsObserved();
            d.addU64(det->eventsObserved());
            d.addU64(det->anySuspicious());
            addVerdict(d, det->verdict(lineAlign(res.channel.shared.paddr)));
        }
        addCounters(d, out.counters);
    } catch (const std::exception &e) {
        out.error = cell.label + ": " + e.what();
    }
    out.digest = d.value();
    return out;
}

ExperimentSpec
detectProbeSpec(std::uint64_t seed)
{
    Setup setup;
    defendedCells(setup, seed);
    return setup.cells.front().spec;
}

} // namespace perfbench
