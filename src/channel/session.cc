#include "channel/session.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "os/kernel.hh"
#include "prof/profiler.hh"

namespace csim
{

std::unique_ptr<PairLink> makePhyLink();
std::unique_ptr<PairLink> makeEccLink(const EccParams &ecc);
std::unique_ptr<PairLink> makeSymbolLink(const SymbolParams &params);

const char *
linkKindName(LinkKind k)
{
    switch (k) {
      case LinkKind::raw: return "raw";
      case LinkKind::phy: return "phy";
      case LinkKind::ecc: return "ecc";
      case LinkKind::symbols: return "symbols";
    }
    return "?";
}

LinkKind
linkFor(const ChannelConfig &cfg)
{
    return cfg.phy.profile != PhyProfile::legacyParity || cfg.phy.adaptive
               ? LinkKind::phy
               : LinkKind::raw;
}

namespace
{

std::unique_ptr<PairLink>
makeLink(const SessionConfig &cfg)
{
    switch (cfg.link) {
      case LinkKind::raw: return makeLeakageVector(cfg.channel.vector);
      case LinkKind::phy: return makePhyLink();
      case LinkKind::ecc: return makeEccLink(cfg.ecc);
      case LinkKind::symbols: return makeSymbolLink(cfg.symbols);
    }
    fatal("unknown link kind ", static_cast<int>(cfg.link));
}

/** A pair thread: its start offset, then the link's body, nested
 *  on the same thread (an offset of 0 costs no simulated time). */
Task
startPair(ThreadApi api, Tick offset, PairLink &link, VectorRun &run,
          bool trojan)
{
    if (offset > 0)
        co_await api.spin(offset);
    Task body =
        trojan ? link.trojanTask(api, run) : link.spyTask(api, run);
    co_await body;
}

/** One trojan/spy pair of a session. */
struct Pair
{
    /** The pair's config (its own scenario in a mixed fleet). */
    ChannelConfig cfg;
    std::unique_ptr<PairLink> link;
    std::unique_ptr<ExperimentRig> rig;
    /** sent, trojan and spy are bound into @ref run. */
    ChannelReport report;
    std::optional<VectorRun> run;
    /** The thread whose end ends the pair's run. */
    SimThread *ender = nullptr;
};

/**
 * One machine and its pairs. Construction attaches the caller's
 * observers and destruction detaches them (the machine and its bus
 * die with the session; the observers keep their captured state);
 * run() does everything in between.
 */
class Session
{
  public:
    Session(const SessionConfig &cfg, const CalibrationResult &cal)
        : cfg_(cfg), cal_(cal), machine_(cfg.channel.system)
    {
        // Subscribe before anything touches memory, so the captures
        // include share establishment (KSM scans, COW splits, the
        // ch.share_established milestone).
        const ChannelConfig &ch = cfg_.channel;
        TraceBus &bus = machine_.mem.trace();
        if (ch.recorder)
            ch.recorder->attach(bus, ch.system.numCores());
        for (BusTap *tap : ch.taps)
            tap->attach(bus, ch.system.numCores());
        // A fleet always reports per-pair verdicts, from its own
        // detector when the caller brought none.
        detector_ = ch.detector;
        if (!detector_ && cfg_.fleet)
            detector_ = &ownDetector_.emplace(cfg_.fleet->detector);
        if (detector_)
            detector_->attach(bus);
    }

    ~Session()
    {
        if (detector_)
            detector_->detach();
        for (BusTap *tap : cfg_.channel.taps)
            tap->detach();
        if (cfg_.channel.recorder)
            cfg_.channel.recorder->detach();
    }

    SessionReport
    run(const BitString &payload)
    {
        buildPairs(payload);
        deployDefense();
        if (cfg_.link == LinkKind::raw)
            countRetries();
        spawnPairs();
        {
            // A fleet's cycles are accounted by runExperiment's
            // experiment.fleet span instead.
            std::optional<ScopedSpan> span;
            if (!cfg_.fleet)
                span.emplace("rig.run");
            const Tick start = machine_.sched.now();
            machine_.sched.run(timeout(), [this] {
                return std::all_of(pairs_.begin(), pairs_.end(),
                                   [](const auto &pair) {
                                       return pair->ender->finished;
                                   });
            });
            if (span)
                span->addVirtual(machine_.sched.now() - start);
        }
        for (const auto &pair : pairs_)
            pair->rig->crew->stopAll();
        return harvest();
    }

  private:
    void
    buildPairs(const BitString &payload)
    {
        const ChannelConfig &base = cfg_.channel;
        const FleetConfig *fleet = cfg_.fleet ? &*cfg_.fleet : nullptr;
        // Noise agents start before the channel, which must operate
        // against an already-busy machine: a fleet spawns them before
        // its first pair, the single pair (id 0) right after
        // establishing its share. Both orders decide physical page
        // addresses through the bump allocator; the goldens pin each.
        const auto spawn_noise = [&] {
            spawnNoiseAgents(
                machine_, fleet ? fleet->noiseAgents : base.noiseThreads,
                CorePlan::standard(base.system).noise, base.noise,
                base.system.seed * 77 + 5);
        };
        if (fleet)
            spawn_noise();
        const int n = fleet ? fleet->pairs : 1;
        for (int k = 0; k < n; ++k) {
            const auto id = static_cast<std::uint32_t>(fleet ? k + 1 : 0);
            auto pair = std::make_unique<Pair>();
            pair->cfg = base;
            if (fleet && !fleet->scenarioMix.empty()) {
                pair->cfg.scenario =
                    fleet->scenarioMix[static_cast<std::size_t>(k) %
                                       fleet->scenarioMix.size()];
            }
            const ScenarioInfo &sc = scenarioInfo(pair->cfg.scenario);
            pair->link = makeLink(cfg_);
            // Distinct per-pair share patterns: identical patterns
            // would let KSM merge co-resident pairs' pages with *each
            // other*, collapsing N channels onto one physical line.
            const std::uint64_t pattern = base.system.seed ^ 0x6b5fca37;
            pair->rig = std::make_unique<ExperimentRig>(
                machine_, pair->cfg, fleetCorePlan(base.system, k),
                pair->link->carrier(sc), id,
                id == 0 ? pattern : deriveSeed(pattern, id));
            if (id == 0)
                spawn_noise();
            pair->rig->spawnCrew(pair->cfg, pair->link->localLoaders(sc),
                                 pair->link->remoteLoaders(sc));
            pair->report.sent = payload;
            if (fleet) {
                // The pair's own seed stream (the + 1 mirrors the
                // single-pair CLI's payload seeding).
                Rng rng(deriveSeed(base.system.seed + 1, id));
                pair->report.sent = randomBits(rng, fleet->payloadBits);
            }
            pair->report.shared = pair->rig->shared;
            pairs_.push_back(std::move(pair));
        }
    }

    void
    deployDefense()
    {
        // Runtime defences (§VIII-E techniques 1 and 2; technique 3
        // is the llc-notify timing change) deploy once per machine:
        // the defender does not know which tenant is hostile, so it
        // watches every shared line.
        const ChannelConfig &base = cfg_.channel;
        if (base.defense == Defense::targetedNoise) {
            // Monitor thread: issues extra loads on the shared lines
            // from a spare core, converting E-state blocks to S under
            // the spies' feet. Round-robin at the single-pair budget
            // scaled to the tenancy, so each line still flips a few
            // times per bit period.
            Process &proc = machine_.kernel.createProcess("monitor");
            std::vector<VAddr> lines;
            for (const auto &pair : pairs_) {
                const PAddr paddr = pair->rig->shared.paddr;
                lines.push_back(
                    proc.mapPhysical({pageAlign(paddr)}, false) +
                    pageOffset(paddr));
            }
            const Tick gap = std::max<Tick>(
                900 / static_cast<Tick>(lines.size()), 150);
            machine_.kernel.spawnThread(
                machine_.sched, "monitor", base.system.coreOf(1, 3), proc,
                [lines, gap](ThreadApi api) -> Task {
                    for (std::size_t i = 0;; i = (i + 1) % lines.size()) {
                        co_await api.load(lines[i]);
                        co_await api.spin(gap);
                    }
                });
        }
        if (base.defense == Defense::ksmGuard &&
            base.sharing == SharingMode::ksm)
            machine_.kernel.enableKsmGuard();
    }

    /**
     * Retry-cost plumbing for the raw link: tally each pair's
     * NACK/retransmit milestones off the bus into its metrics, routed
     * by the pair tag its threads stamp into their events.
     */
    void
    countRetries()
    {
        machine_.mem.trace().subscribe(
            categoryBit(TraceCategory::channel),
            [this](const TraceEvent &ev) {
                for (const auto &pair : pairs_) {
                    ChannelMetrics &m = pair->report.metrics;
                    if (pair->rig->pairId != ev.pair)
                        continue;
                    if (ev.type == TraceEventType::chNack)
                        ++m.nacks;
                    else if (ev.type == TraceEventType::chRetransmit)
                        ++m.retransmits;
                }
            });
    }

    void
    spawnPairs()
    {
        const Tick stagger = cfg_.fleet ? cfg_.fleet->staggerCycles : 0;
        for (std::size_t k = 0; k < pairs_.size(); ++k) {
            Pair &pair = *pairs_[k];
            ExperimentRig &rig = *pair.rig;
            // Pair k starts k staggers in; slotted vectors derive
            // their slot-clock epoch from the offset in prepare().
            const Tick offset = stagger * static_cast<Tick>(k);
            pair.run.emplace(VectorRun{
                pair.cfg, scenarioInfo(pair.cfg.scenario), cal_,
                pair.report.sent, rig, pair.report.trojan,
                pair.report.spy, pair.cfg.collectTrace, offset});
            pair.link->prepare(*pair.run);
            const std::string suffix =
                rig.pairId == 0 ? "" : msgCat(".p", rig.pairId);
            SimThread *threads[2];  // [spy, trojan]: trojan spawns first
            for (const bool trojan : {true, false}) {
                threads[trojan] = machine_.kernel.spawnThread(
                    machine_.sched,
                    (trojan ? "trojan.ctl" : "spy") + suffix,
                    trojan ? rig.plan.controller : rig.plan.spy,
                    trojan ? *rig.trojanProc : *rig.spyProc,
                    [&pair, offset, trojan](ThreadApi api) {
                        return startPair(api, offset, *pair.link,
                                         *pair.run, trojan);
                    });
                threads[trojan]->pairTag = rig.pairId;
            }
            pair.ender = threads[pair.link->trojanEnds()];
        }
    }

    Tick
    timeout() const
    {
        const ChannelConfig &base = cfg_.channel;
        if (!cfg_.fleet)
            return base.timeout;
        // A fleet's safety timeout accounts for the whole fleet's
        // contention plus the staggered tail-pair start.
        const FleetConfig &fleet = *cfg_.fleet;
        ChannelConfig derive = base;
        derive.noiseThreads = fleet.noiseAgents;
        derive.coResidentPairs = fleet.pairs;
        return (fleet.timeoutMargin > 0.0
                    ? derive.deriveTimeout(fleet.payloadBits,
                                           fleet.timeoutMargin)
                    : base.timeout) +
               fleet.staggerCycles * static_cast<Tick>(fleet.pairs);
    }

    SessionReport
    harvest()
    {
        // The sync and transmit phases interleave as coroutines
        // inside rig.run, so they cannot be wall-scoped; reconstruct
        // their virtual-cycle extents from the trojan's timestamps.
        if (!cfg_.fleet && Profiler::enabled()) {
            const TrojanResult &tr = pairs_.front()->report.trojan;
            if (tr.syncEnd >= tr.syncStart)
                profRecord("rig.sync", 0, tr.syncEnd - tr.syncStart);
            if (tr.txEnd >= tr.txStart)
                profRecord("rig.transmit", 0, tr.txEnd - tr.txStart);
        }
        SessionReport out;
        CounterRegistry counters =
            collectCounters(machine_, cfg_.channel.recorder);
        for (const auto &pair : pairs_) {
            pair->report.completed = pair->ender->finished;
            pair->link->finish(*pair->run, pair->report, counters, out);
        }
        if (!cfg_.fleet) {
            out.channel = std::move(pairs_.front()->report);
            out.channel.counters = std::move(counters);
            return out;
        }
        FleetReport &fleet = out.fleet;
        fleet.durationCycles = machine_.sched.now();
        fleet.completed = true;
        for (const auto &pair : pairs_) {
            ChannelReport &ch = pair->report;
            PairReport &pr = fleet.pairs.emplace_back();
            pr.pairId = pair->rig->pairId;
            pr.scenario = pair->cfg.scenario;
            pr.sent = std::move(ch.sent);
            pr.received = std::move(ch.received);
            pr.metrics = ch.metrics;
            pr.completed = ch.completed;
            pr.sharedLine = ch.shared.paddr;
            pr.detect = detector_->verdict(ch.shared.paddr);
            fleet.pairsFlagged += pr.detect.suspicious ? 1 : 0;
            fleet.completed = fleet.completed && pr.completed;
        }
        fleet.counters = std::move(counters);
        fleet.aggregate = detector_->aggregateVerdict();
        return out;
    }

    const SessionConfig &cfg_;
    const CalibrationResult &cal_;
    /** Declared before everything that points into it. */
    Machine machine_;
    std::optional<CoherenceChannelDetector> ownDetector_;
    CoherenceChannelDetector *detector_ = nullptr;
    std::vector<std::unique_ptr<Pair>> pairs_;
};

} // namespace

SessionReport
runSession(const SessionConfig &cfg_in, const BitString &payload,
           const CalibrationResult *cal)
{
    SessionConfig cfg = cfg_in;
    ChannelConfig &ch = cfg.channel;
    fatal_if(cfg.link != LinkKind::raw &&
                 (ch.vector != VectorKind::coherence || cfg.fleet),
             "the ", linkKindName(cfg.link),
             " link runs one coherence-vector pair");
    fatal_if(cfg.link == LinkKind::raw && linkFor(ch) == LinkKind::phy,
             "the raw link would ignore the configured PHY stack");
    fatal_if(cfg.fleet && cfg.fleet->pairs < 1,
             "a fleet needs >= 1 pair");

    // The llc-notify defence is a hardware change: apply it to the
    // timing model before anything (calibration included) samples it.
    if (ch.defense == Defense::llcNotify)
        ch.system.timing.llcNotifiedOfUpgrade = true;

    // Every pair probes the same microarchitecture, so one
    // calibration serves the session. The adversaries learn their
    // bands by self-measurement ahead of time, on a quiet machine
    // (paper §VII-B).
    CalibrationResult local_cal;
    if (!cal) {
        ScopedSpan span("rig.calibrate");
        local_cal = makeLeakageVector(ch.vector)->calibrate(ch);
        cal = &local_cal;
    }
    return Session(cfg, *cal).run(payload);
}

} // namespace csim
