/**
 * @file
 * The LeakageVector plugin interface: one covert channel = one
 * implementation of this seam.
 *
 * A vector supplies four things — a trojan primitive (how machine
 * state is modulated), a spy primitive (how it is timed/probed), a
 * calibration procedure (which bands to learn on a scratch machine)
 * and a symbol mapping (how timed probes become bits) — while the
 * surrounding machinery stays vector-agnostic: the session
 * (channel/session.hh) runs a vector as its pairs' raw link,
 * ExperimentRig builds processes/shared state/loader crew, noise
 * agents and defences deploy identically, fleet runs stagger any
 * vector's pairs, and the detector/obs layers watch the same trace
 * bus.
 *
 * Band convention for non-coherence vectors: the coherence channel
 * indexes CalibrationResult::bands by Combo, the others use only two
 * bands — bands[0] is the *action* band (the latency the spy sees
 * when the trojan acted: dirty writeback, DRAM refill after an LRU
 * eviction, a COW fault) and bands[1] is the *idle* band. The
 * actionBand()/idleBand() helpers name that convention.
 *
 * Adding a vector: subclass LeakageVector, return it from
 * makeLeakageVector(), add the name to vector_kind and the registry
 * choice list. DESIGN.md section "Leakage-vector plugins" walks
 * through the contract.
 */

#ifndef COHERSIM_CHANNEL_VECTOR_HH
#define COHERSIM_CHANNEL_VECTOR_HH

#include <memory>

#include "channel/channel.hh"
#include "channel/vector_kind.hh"

namespace csim
{

/** Action-band accessor for the two-band vectors (see file docs). */
inline const LatencyBand &
actionBand(const CalibrationResult &cal)
{
    return cal.bands[0];
}

/** Idle-band accessor for the two-band vectors (see file docs). */
inline const LatencyBand &
idleBand(const CalibrationResult &cal)
{
    return cal.bands[1];
}

struct SessionReport;

/**
 * Everything one trojan/spy pair's bodies need, assembled by the
 * session for every pair and handed to its link. The referenced
 * objects outlive the spawned coroutines.
 */
struct VectorRun
{
    const ChannelConfig &cfg;
    const ScenarioInfo &scenario;
    const CalibrationResult &cal;
    const BitString &payload;
    ExperimentRig &rig;
    TrojanResult &trojan;
    SpyResult &spy;
    /** Record the spy's raw samples (ChannelConfig::collectTrace). */
    bool collectTrace = false;
    /**
     * Start offset of this pair (fleet stagger; 0 single-pair).
     * Slotted vectors derive their shared slot-clock epoch from it;
     * the coherence vector instead spins it off before its sync
     * phase.
     */
    Tick startAt = 0;
};

/**
 * One pair's link (channel/session.hh): its rig shape, its trojan
 * and spy bodies, and how a finished pair is harvested. A leakage
 * vector is the raw link; the PHY stack, parity+NACK and 2-bit
 * symbols are the others. Instances are created per pair, so a link
 * may keep per-pair state. The VectorRun handed to every hook is the
 * pair's context; its trojan/spy results are the pair's
 * ChannelReport fields.
 */
class PairLink
{
  public:
    virtual ~PairLink() = default;

    /** Loader threads the trojan drives on the spy's socket... */
    virtual int
    localLoaders(const ScenarioInfo &sc) const
    {
        return sc.localLoaders;
    }

    /** ...and on the remote socket (default: the Table I crew). */
    virtual int
    remoteLoaders(const ScenarioInfo &sc) const
    {
        return sc.remoteLoaders;
    }

    /**
     * The combination whose loaders re-fetch the shared line; the
     * rig picks a line homed on that combination's socket.
     */
    virtual Combo
    carrier(const ScenarioInfo &sc) const
    {
        return sc.csc;
    }

    /**
     * Setup after the rig and defences, before the bodies spawn:
     * build conflict sets, create mergeable pages, spawn auxiliary
     * daemons, encode frames.
     */
    virtual void prepare(VectorRun &) {}

    /**
     * The trojan coroutine. Must fill run.trojan (txStart/txEnd at
     * minimum) and publish the chTx* milestones.
     */
    virtual Task trojanTask(ThreadApi api, VectorRun &run) = 0;

    /**
     * The spy coroutine. Must fill run.spy (bits, rxStart/rxEnd) and
     * publish the chRx* milestones.
     */
    virtual Task spyTask(ThreadApi api, VectorRun &run) = 0;

    /**
     * Whether the trojan ends the pair's run. Only the ecc trojan
     * does: it owns the acknowledgement window after the last
     * packet. Every other pair ends when its spy does.
     */
    virtual bool
    trojanEnds() const
    {
        return false;
    }

    /**
     * Harvest the finished pair: fill @p ch's received bits and
     * metrics (sent, trojan, spy, shared and completed are already
     * set), publish the pair's channel counters into @p counters and
     * fill the link's own branch of @p out.
     */
    virtual void finish(VectorRun &run, ChannelReport &ch,
                        CounterRegistry &counters,
                        SessionReport &out) = 0;
};

/**
 * One leakage vector, the raw link. Instances are created per run
 * (one per fleet pair), so prepare() may stash per-run state
 * (conflict sets, page addresses, slot timing) in the object.
 */
class LeakageVector : public PairLink
{
  public:
    virtual VectorKind kind() const = 0;
    const char *name() const { return vectorName(kind()); }

    /**
     * Learn this vector's latency bands by self-measurement on a
     * scratch machine built from @p cfg (paper §VII-B). Sweeps reuse
     * one result across points; the session calls this only when the
     * caller did not pass a calibration in.
     */
    virtual CalibrationResult
    calibrate(const ChannelConfig &cfg) const = 0;

    /** No loader crew unless the vector asks for one. */
    int
    localLoaders(const ScenarioInfo &) const override
    {
        return 0;
    }

    int
    remoteLoaders(const ScenarioInfo &) const override
    {
        return 0;
    }

    /**
     * The raw harvest: the spy's bits against the payload, over the
     * trojan's transmit window. Keeps the NACK/retransmit tallies the
     * session counted into ch.metrics while the pair ran.
     */
    void finish(VectorRun &run, ChannelReport &ch,
                CounterRegistry &counters, SessionReport &out) final;
};

/** Instantiate the plugin for a vector kind. */
std::unique_ptr<LeakageVector> makeLeakageVector(VectorKind kind);

} // namespace csim

#endif // COHERSIM_CHANNEL_VECTOR_HH
