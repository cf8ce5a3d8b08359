/**
 * @file
 * The transmission session: the one driver every covert transmission
 * runs through.
 *
 * A session owns one Machine and does each of these steps once: it
 * applies the llc-notify timing change, calibrates (unless handed a
 * calibration), attaches the recorder, taps and detector, spawns the
 * noise agents, builds its pairs, deploys the defence, runs until
 * every pair's ending thread finishes, stops the loader crews,
 * collects the counters and detaches. Each pair holds its rig state
 * (ExperimentRig: processes, shared block, loader crew, core plan,
 * pair id) and one link — the layer deciding what crosses the
 * channel:
 *
 *  - raw: the leakage vector's own modulation (Algorithms 1-2 for
 *    the coherence vector, channel/vector.hh for the others);
 *  - phy: the framed, FEC-protected wire format of src/phy;
 *  - ecc: parity + NACK retransmission (paper Fig. 10);
 *  - symbols: 2-bit symbols over all four combinations (Fig. 11).
 *
 * A single-pair session runs pair 0 on CorePlan::standard and
 * transmits the caller's payload; a fleet runs pairs 1..N on
 * fleetCorePlan blocks with per-pair payloads (channel/fleet.hh).
 * runExperiment (channel/experiment.hh) is the spec-level entry
 * point; runSession is the raw-config one, for callers that adjust
 * resolved configs or need the ecc/symbols links.
 */

#ifndef COHERSIM_CHANNEL_SESSION_HH
#define COHERSIM_CHANNEL_SESSION_HH

#include <cstdint>
#include <optional>

#include "channel/channel.hh"
#include "channel/ecc.hh"
#include "channel/fleet.hh"
#include "channel/symbols.hh"
#include "channel/vector.hh"
#include "phy/phy_channel.hh"

namespace csim
{

/** The link layer a session's pairs transmit through. */
enum class LinkKind : std::uint8_t
{
    raw,      //!< the leakage vector's own modulation
    phy,      //!< framed FEC stack (src/phy); coherence vector only
    ecc,      //!< parity + NACK retransmission; coherence only
    symbols,  //!< 2-bit symbols; coherence vector only
};

const char *linkKindName(LinkKind k);

/**
 * The link @p cfg selects: the PHY stack for a hamming profile or
 * the adaptive controller (which never picks legacy-parity), the raw
 * modulation otherwise. The ecc and symbols links are never implied
 * by a config; callers ask for them.
 */
LinkKind linkFor(const ChannelConfig &cfg);

/** Everything runSession needs besides the payload. */
struct SessionConfig
{
    SessionConfig() = default;
    SessionConfig(const ChannelConfig &cfg, LinkKind kind = LinkKind::raw)
        : channel(cfg), link(kind)
    {}

    /** Every pair's channel knobs and the machine's `system`. */
    ChannelConfig channel;
    LinkKind link = LinkKind::raw;
    /** Tunables of the ecc link. */
    EccParams ecc;
    /** Tunables of the symbols link. */
    SymbolParams symbols;
    /**
     * Set for a fleet: fleet->pairs pairs numbered from 1, fleet
     * noise agents and a contention-derived timeout, every pair on
     * the raw link. Unset: one pair (id 0) with channel.noiseThreads
     * noise agents and channel.timeout.
     */
    std::optional<FleetConfig> fleet;
};

/**
 * Everything one session produced. The branches the session's shape
 * and link name are filled; the others stay default-constructed.
 */
struct SessionReport
{
    /** Single-pair raw or phy link: the common transport view. */
    ChannelReport channel;
    /** phy link: the PHY stack's own view. */
    PhyReport phy;
    /** ecc link. */
    EccReport ecc;
    /** symbols link. */
    SymbolReport symbols;
    /** Fleet sessions: per-pair results and machine counters. */
    FleetReport fleet;
};

/**
 * Run one session.
 *
 * @param cfg what to run. Non-raw links run one coherence-vector
 *        pair, and the raw link refuses a PHY selection it would
 *        ignore (ExperimentSpec::validateLink reports the same as a
 *        ConfigError).
 * @param payload bits pair 0 transmits; a fleet derives its pairs'
 *        payloads from the seed and ignores it.
 * @param cal pre-computed calibration to reuse across a sweep;
 *        calibrated per the channel's vector when null.
 */
SessionReport runSession(const SessionConfig &cfg,
                         const BitString &payload,
                         const CalibrationResult *cal = nullptr);

} // namespace csim

#endif // COHERSIM_CHANNEL_SESSION_HH
