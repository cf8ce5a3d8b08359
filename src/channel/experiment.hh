/**
 * @file
 * The one-call experiment entry point: `runExperiment(spec)`
 * resolves a declarative ExperimentSpec into a transmission session
 * (channel/session.hh) — one pair through the raw or PHY link, or a
 * multi-tenant fleet — and returns one sum-type result.
 *
 * This sits at the top of the channel stack, one layer above the
 * config resolution it consumes. Callers holding a resolved config
 * they adjust by hand, or wanting the ecc/symbols links, call
 * runSession directly.
 */

#ifndef COHERSIM_CHANNEL_EXPERIMENT_HH
#define COHERSIM_CHANNEL_EXPERIMENT_HH

#include "channel/session.hh"
#include "config/experiment_spec.hh"

namespace csim
{

/** Which driver an ExperimentSpec resolved to. */
enum class ExperimentKind : std::uint8_t
{
    single,  //!< one pair, raw modulation (any leakage vector)
    phy,     //!< one pair through the framed FEC stack
    fleet,   //!< N concurrent pairs on one machine
};

/**
 * Everything one dispatched experiment produced. Exactly one branch
 * is authoritative, named by @ref kind; the others stay
 * default-constructed — except that a PHY run also fills @ref
 * channel with the common transport view (metrics, counters,
 * trojan/spy results).
 */
struct ExperimentResult
{
    ExperimentKind kind = ExperimentKind::single;
    ChannelReport channel;
    PhyReport phy;
    FleetReport fleet;

    /** Did the authoritative run finish before its safety stop? */
    bool
    completed() const
    {
        return kind == ExperimentKind::fleet ? fleet.completed
                                             : channel.completed;
    }
};

/**
 * Resolve @p spec and run it end to end.
 *
 * fleet.pairs > 1 runs the fleet; otherwise one pair runs through
 * the link the channel selects (linkFor: the PHY stack for a
 * non-legacy profile or the adaptive controller, the vector's raw
 * modulation otherwise).
 *
 * @param spec the declarative experiment description.
 * @param cal pre-computed calibration to reuse across a sweep;
 *            calibrated per the spec's vector when null.
 * @param payload overrides spec.makePayload() when non-null (sweep
 *        benches transmit fixed reference patterns); ignored on the
 *        fleet path, where pair payloads are derived per pair.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec,
                               const CalibrationResult *cal = nullptr,
                               const BitString *payload = nullptr);

} // namespace csim

#endif // COHERSIM_CHANNEL_EXPERIMENT_HH
