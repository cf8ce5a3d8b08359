/**
 * @file
 * The PHY-profile covert session: the channel driver that replaces
 * the legacy parity/NACK scheme with the framed, whitened,
 * interleaved, FEC-protected wire format of src/phy.
 *
 * The transmit chain runs whiten -> Hamming(8,4) -> interleave ->
 * frame (preamble + header + body); the receive chain runs the soft
 * demapper -> preamble hunt -> deinterleave -> FEC decode ->
 * dewhiten. There is no reverse channel: residual errors are the
 * codewords FEC could not repair, and the rate is whatever the
 * operating point sustains — the trade the adaptive controller
 * navigates (src/phy/adaptive.hh).
 *
 * The stack runs as the session's phy link (channel/session.hh,
 * LinkKind::phy) on a single pair; its coroutine bodies and session
 * state are private to the link.
 */

#ifndef COHERSIM_PHY_PHY_CHANNEL_HH
#define COHERSIM_PHY_PHY_CHANNEL_HH

#include <cstdint>

#include "common/bit_string.hh"
#include "common/types.hh"
#include "phy/phy_config.hh"

namespace csim
{

/** Per-stage receive/transmit counters of one PHY session. */
struct PhyStageStats
{
    std::uint64_t framesSent = 0;
    std::uint64_t wireBitsReceived = 0;  //!< demapped wire bits
    std::uint64_t preambleLocks = 0;
    std::uint64_t headerBad = 0;      //!< headers that failed SECDED
    std::uint64_t framesAccepted = 0;
    std::uint64_t framesDuplicate = 0;  //!< dropped by the seq guard
    std::uint64_t fecBlocks = 0;        //!< codewords decoded
    std::uint64_t fecCorrected = 0;     //!< codewords with a repair
    std::uint64_t fecUncorrectable = 0;  //!< detected-unrepairable
};

/** Outcome of one PHY-profile session. */
struct PhyReport
{
    std::uint64_t payloadBits = 0;
    int frames = 0;  //!< frames the payload was split into
    /** Wire bits transmitted (preamble + header + coded body). */
    std::uint64_t rawBitsSent = 0;
    /** What the spy reassembled (truncated to payloadBits). */
    BitString delivered;
    /** Positional bit errors remaining after FEC. */
    std::uint64_t residualErrors = 0;
    /** Session duration (sync end to trojan completion), cycles. */
    Tick durationCycles = 0;
    /** Payload bits over the session duration, Kbits/s (the
     *  EccReport::effectiveKbps convention). */
    double effectiveKbps = 0.0;
    /** Goodput: correctly delivered payload bits over the session
     *  duration, Kbits/s — net of framing/FEC overhead and of the
     *  residual errors effectiveKbps still credits. */
    double payloadKbps = 0.0;
    /** Profile the session actually ran (adaptive may override). */
    PhyProfile profileUsed = PhyProfile::hammingSoft;
    /** Raw rate the adaptive controller picked; 0 = configured. */
    double rateKbps = 0.0;
    /** Calibrated band separation the controller acted on. */
    double bandSeparation = 0.0;
    PhyStageStats stages;
    bool completed = false;
};

} // namespace csim

#endif // COHERSIM_PHY_PHY_CHANNEL_HH
