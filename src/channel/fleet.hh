/**
 * @file
 * Multi-tenant fleet layout and results: one simulated machine
 * hosting N concurrent trojan/spy pairs plus M noise agents.
 *
 * The paper evaluates one pair on an otherwise idle host, but its
 * threat model is a shared cloud machine. A fleet is a transmission
 * session (channel/session.hh) with N pairs numbered from 1: per-pair
 * seeds, per-pair core plans and staggered start offsets, reporting
 * per-pair accuracy/effectiveKbps alongside the CC-Hunter view of the
 * whole host — both the per-pair line verdicts and the
 * machine-aggregate (address-blind) verdict that answers "does the
 * detector still fire when N channels interleave?".
 *
 * Everything is deterministic: pair k's payload, share pattern and
 * scenario follow from the base seed and k alone, so a fleet run is
 * bit-identical however the host fans the surrounding sweep out.
 */

#ifndef COHERSIM_CHANNEL_FLEET_HH
#define COHERSIM_CHANNEL_FLEET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/channel.hh"
#include "detect/cchunter.hh"

namespace csim
{

/**
 * The fleet-only knobs of a session (SessionConfig::fleet). The
 * per-pair channel knobs and the shared host's `system` live in
 * SessionConfig::channel, whose `noiseThreads` the fleet replaces by
 * @ref noiseAgents. The channel's defence deploys once for the whole
 * machine: the targeted-noise monitor round-robins over every pair's
 * line, and the KSM guard and llc-notify are machine-wide anyway.
 */
struct FleetConfig
{
    /** Concurrent trojan/spy pairs (>= 1). */
    int pairs = 2;
    /** Fleet-wide noise agents (co-tenant background load). */
    int noiseAgents = 0;
    /**
     * Start-offset spacing, in cycles: pair k begins its protocol
     * k * stagger cycles in. Real tenants do not start in lockstep,
     * and a common start would synchronize every pair's sync phase
     * into one burst.
     */
    Tick staggerCycles = 200'000;
    /**
     * Scenario of pair k: mix[k % mix.size()]; empty runs every
     * pair in the channel's scenario.
     */
    std::vector<Scenario> scenarioMix;
    /** Random payload bits each pair transmits (per-pair seeded). */
    std::size_t payloadBits = 64;
    /**
     * Safety-timeout margin, applied through
     * ChannelConfig::deriveTimeout with the fleet's contention
     * (noise agents + co-resident pairs) folded in.
     */
    double timeoutMargin = 20.0;
    /**
     * Thresholds of the session's own CC-Hunter monitor, used when
     * the channel brings no detector of its own.
     */
    DetectorParams detector;
};

/** One pair's slice of a fleet run. */
struct PairReport
{
    /** 1-based pair number; matches trace events and counters. */
    std::uint32_t pairId = 0;
    Scenario scenario = Scenario::lexcC_lshB;
    BitString sent;
    BitString received;
    /** metrics.pairId mirrors pairId above. */
    ChannelMetrics metrics;
    /** False if this pair's spy was still running at the timeout. */
    bool completed = false;
    /** The pair's shared line (its channel carrier). */
    PAddr sharedLine = 0;
    /** CC-Hunter verdict on this pair's line. */
    LineVerdict detect;
};

/** Everything one fleet run produced. */
struct FleetReport
{
    /** Per-pair results, ordered by pairId (not finish order). */
    std::vector<PairReport> pairs;
    /**
     * Machine-wide counters plus every pair's namespaced channel
     * counters ("pairK.ch.*").
     */
    CounterRegistry counters;
    /** Address-blind CC-Hunter verdict over the combined stream. */
    LineVerdict aggregate;
    /** Pairs whose own line the detector flagged. */
    int pairsFlagged = 0;
    /** True when every pair finished before the safety timeout. */
    bool completed = false;
    /** Virtual time the whole fleet took. */
    Tick durationCycles = 0;
};

} // namespace csim

#endif // COHERSIM_CHANNEL_FLEET_HH
