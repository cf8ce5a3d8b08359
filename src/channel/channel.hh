/**
 * @file
 * Covert-channel experiment configuration and per-pair rig state:
 * the ChannelConfig a session consumes, the ChannelReport a
 * transmission produces, the core placement plan, and the
 * ExperimentRig holding one trojan/spy pair's processes, shared
 * block and loader crew. The session driver (channel/session.hh)
 * builds and runs the rigs.
 */

#ifndef COHERSIM_CHANNEL_CHANNEL_HH
#define COHERSIM_CHANNEL_CHANNEL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/calibration.hh"
#include "channel/combo.hh"
#include "channel/metrics.hh"
#include "channel/noise.hh"
#include "channel/protocol.hh"
#include "channel/sharing.hh"
#include "channel/spy.hh"
#include "channel/trojan.hh"
#include "channel/vector_kind.hh"
#include "common/bit_string.hh"
#include "mem/params.hh"
#include "phy/phy_config.hh"
#include "trace/counters.hh"
#include "trace/recorder.hh"
#include "trace/tap.hh"

namespace csim
{

class CoherenceChannelDetector;

/**
 * Deployed defence against the channel (paper §VIII-E). The first two
 * are software techniques the experiment rig activates at runtime;
 * the third is the hardware change modelled by
 * TimingParams::llcNotifiedOfUpgrade.
 */
enum class Defense : std::uint8_t
{
    none,
    /** A monitor thread re-loads the shared page, turning E into S. */
    targetedNoise,
    /** KsmGuard un-merges pages with suspicious flush rates. */
    ksmGuard,
    /** LLC learns of E->M upgrades and serves E-state reads itself. */
    llcNotify,
};

const char *defenseName(Defense d);

/** Configuration of one covert-channel experiment. */
struct ChannelConfig
{
    SystemConfig system;
    /**
     * Which leakage vector carries the bits (channel/vector.hh).
     * The coherence default keeps every classic code path; the
     * sibling vectors reuse the same rig, noise, defence, fleet and
     * detector machinery through the plugin seam.
     */
    VectorKind vector = VectorKind::coherence;
    Scenario scenario = Scenario::lexcC_lshB;
    ChannelParams params;
    SharingMode sharing = SharingMode::explicitShared;
    /** Co-located kernel-build noise threads (paper Fig. 9). */
    int noiseThreads = 0;
    NoiseConfig noise;
    /**
     * Trojan/spy pairs sharing the machine (>= 1). The single-pair
     * experiments leave this at 1; fleet runs set it so derived
     * timeouts account for cross-pair contention.
     */
    int coResidentPairs = 1;
    /** Defence deployed against the adversaries (§VIII-E). */
    Defense defense = Defense::none;
    /**
     * PHY channel stack selection (`phy.*`, src/phy). The default
     * legacy-parity profile keeps every classic code path; a hamming
     * profile (or the adaptive controller) selects the framed FEC
     * link (linkFor in channel/session.hh).
     */
    PhyConfig phy;
    /** Record the spy's raw latency trace (paper Fig. 7). */
    bool collectTrace = false;
    /**
     * When set, the session subscribes this recorder to the
     * machine's trace bus before shared-memory establishment, so the
     * captured stream covers the whole experiment (KSM merging
     * included). The recorder outlives the session; drain it after
     * the run.
     */
    TraceRecorder *recorder = nullptr;
    /**
     * Additional bus subscribers (run-health monitors, test probes)
     * attached exactly like the recorder: before share
     * establishment, detached when the session ends. The taps
     * outlive the session and keep their accumulated state.
     */
    std::vector<BusTap *> taps;
    /**
     * CC-Hunter-style detector watching the run (detect/cchunter).
     * Attached to the machine's trace bus alongside the recorder and
     * detached when the session ends; its verdicts stay readable
     * afterwards. The defense matrix uses this to ask whether the
     * detector still fires when a randomized cache degrades the
     * channel itself. A fleet reads its per-pair verdicts from it
     * (or from a detector of its own when this is null).
     */
    CoherenceChannelDetector *detector = nullptr;
    /** Safety stop, in cycles (~300 ms of simulated time). */
    Tick timeout = 800'000'000ULL;

    /**
     * Safety timeout derived from the payload length and the
     * configured protocol timing, replacing per-bench magic
     * constants: the expected transmission time (payload plus
     * delimiters and the end-marker run, at the params' nominal
     * sample period) times @p margin, plus a fixed startup slack.
     * Dead operating points (the spy never locks on) then stop soon
     * after a live run would have finished instead of polling out a
     * one-size-fits-all constant.
     *
     * The expected time is scaled by contentionFactor(): a busy
     * machine stretches every protocol phase (queue waits, preempted
     * quanta), and a timeout derived for an idle machine makes heavy
     * runs die at the safety stop and report completed = false
     * instead of a measurable error rate.
     */
    Tick deriveTimeout(std::size_t payload_bits,
                       double margin = 10.0) const;

    /**
     * How much co-residency stretches the expected transmission
     * time: 1.0 on an idle machine, growing with the configured
     * noise threads and co-resident pairs. Noise agents are
     * duty-cycled (a fraction of a core each); another pair is six
     * pinned threads contending for the same uncore, so it weighs
     * more.
     */
    double
    contentionFactor() const
    {
        return 1.0 + 0.25 * noiseThreads +
               0.75 * (coResidentPairs > 1 ? coResidentPairs - 1 : 0);
    }
};

/**
 * Publish the per-channel counters of one transmission into @p reg,
 * namespaced by @p prefix: ch.bits_sent, ch.bits_received, ch.nacks,
 * ch.retransmits. The prefix is "" on the single-pair path and
 * "pairK." for fleet pair K, so two channels collected into one
 * registry publish disjoint names instead of silently summing into
 * each other's totals.
 */
void addChannelCounters(CounterRegistry &reg,
                        const std::string &prefix,
                        const ChannelMetrics &metrics);

/** Everything one transmission produced. */
struct ChannelReport
{
    BitString sent;
    BitString received;
    ChannelMetrics metrics;
    TrojanResult trojan;
    SpyResult spy;
    SharedBlock shared;
    /** Machine-wide counter totals, snapshotted after the run. */
    CounterRegistry counters;
    /** False if the run hit the safety timeout. */
    bool completed = false;
};

/**
 * Core placement plan of a single-pair session, mirroring the
 * paper's pinning (spy on socket 0; trojan loaders on both sockets;
 * noise threads spread over the remaining cores, oversubscribing
 * loader cores once the free ones are exhausted).
 */
struct CorePlan
{
    CoreId spy;
    CoreId controller;
    std::vector<CoreId> localLoaders;   //!< spy-socket loader cores
    std::vector<CoreId> remoteLoaders;  //!< other-socket loader cores
    std::vector<CoreId> noise;          //!< noise placement order

    /** Build the standard plan for a machine configuration. */
    static CorePlan standard(const SystemConfig &sys);
};

/**
 * Core plan of pair @p k: 4-core blocks on socket 0 (spy, both local
 * loaders, controller) and 2-core blocks on socket 1 (remote
 * loaders), wrapping around once the socket is full — fleet pairs
 * beyond the core budget oversubscribe attack cores and contend
 * through preemption, smaller fleets contend through the shared
 * uncore only. Pair 0's plan is CorePlan::standard.
 */
CorePlan fleetCorePlan(const SystemConfig &sys, int k);

/**
 * One trojan/spy pair's rig on a machine the session owns: the
 * pair's processes, shared block and the trojan's loader crew. The
 * session owns everything machine-wide — bus subscribers, noise
 * agents, defences.
 */
class ExperimentRig
{
  public:
    /**
     * Create the pair's processes and establish its shared block.
     *
     * @param host the session's machine; must outlive the rig.
     * @param cfg the pair's configuration (system must match host).
     * @param plan the pair's core placement.
     * @param csc the combination whose loaders re-fetch the shared
     *        line; the rig picks the line within the shared page
     *        homed on that combination's socket, so re-fetches after
     *        each spy flush avoid the cross-socket memory penalty.
     * @param pair_id 0 for a single-pair session, 1-based in a
     *        fleet; tags the pair's trace events, process names and
     *        counters.
     * @param pattern_seed seeds the shared-block content; must be
     *        distinct per pair, or KSM would merge co-resident
     *        pairs' pages with each other.
     */
    ExperimentRig(Machine &host, const ChannelConfig &cfg,
                  const CorePlan &plan, Combo csc,
                  std::uint32_t pair_id, std::uint64_t pattern_seed);

    ExperimentRig(const ExperimentRig &) = delete;
    ExperimentRig &operator=(const ExperimentRig &) = delete;

    /** Spawn the trojan's loader crew on the plan's loader cores. */
    void spawnCrew(const ChannelConfig &cfg, int n_local,
                   int n_remote);

    /** Counter-name prefix: "" single-pair, "pairK." for pair K. */
    std::string counterPrefix() const;

    Machine &machine;
    CorePlan plan;
    Process *trojanProc = nullptr;
    Process *spyProc = nullptr;
    SharedBlock shared;
    std::unique_ptr<PlacerCrew> crew;
    /** Pair tag of this rig's adversaries (0: single-pair session). */
    std::uint32_t pairId = 0;
};

} // namespace csim

#endif // COHERSIM_CHANNEL_CHANNEL_HH
