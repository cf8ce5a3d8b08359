/**
 * @file
 * Error detection and retransmission (paper §VIII-C, Figure 10).
 *
 * The payload is sent in 64-byte packets carrying 16 parity bits
 * (one even-parity bit per 4-byte chunk) plus a small sequence
 * header. After each packet the roles briefly reverse: if the spy
 * detected a parity error it transmits a NACK by caching block B
 * during the trojan's acknowledgement window; the trojan then
 * retransmits. The scheme guarantees (near-)complete bit recovery at
 * the cost of retransmission and acknowledgement overhead. The scheme
 * runs as the session's ecc link (channel/session.hh, LinkKind::ecc).
 */

#ifndef COHERSIM_CHANNEL_ECC_HH
#define COHERSIM_CHANNEL_ECC_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "channel/channel.hh"
#include "common/bit_string.hh"

namespace csim
{

/** @name Packet codec */
/** @{ */
/** Data bits per packet (64 bytes, paper §VIII-C). */
inline constexpr std::size_t packetDataBits = 512;
/** Parity bits per packet (one per 4-byte chunk). */
inline constexpr std::size_t packetParityBits = 16;
/** Header: sequence byte plus its complement. */
inline constexpr std::size_t packetHeaderBits = 16;
/** Total packet size on the wire. */
inline constexpr std::size_t packetTotalBits =
    packetHeaderBits + packetDataBits + packetParityBits;

/** Even-parity bits, one per 32-bit chunk of @p data. */
BitString parityBits(const BitString &data);

/** Frame a packet: header(seq) + data + parity. */
BitString encodePacket(std::uint8_t seq, const BitString &data512);

/**
 * Parse and verify a packet. @return (seq, data) when the header is
 * consistent and every parity bit matches; nullopt otherwise.
 */
std::optional<std::pair<std::uint8_t, BitString>>
decodePacket(const BitString &bits);
/** @} */

/** Retransmission-protocol tunables. */
struct EccParams
{
    /** Trojan probes per acknowledgement window. */
    int ackSamples = 5;
    /** Cached probes (out of ackSamples) that signal a NACK. */
    int nackThreshold = 2;
    /** Give up on a packet after this many retransmissions. */
    int maxRetries = 25;
};

/** Outcome of an error-corrected session. */
struct EccReport
{
    /** Payload bits the session was asked to deliver. */
    std::uint64_t payloadBits = 0;
    /** Packets the payload was split into. */
    int packets = 0;
    /** Packet retransmissions the spy's NACKs triggered. */
    int retransmissions = 0;
    /** NACK windows the trojan observed (>= retransmissions). */
    std::uint64_t nacks = 0;
    /** Raw bits that crossed the channel (incl. retransmissions). */
    std::uint64_t rawBitsSent = 0;
    /** What the spy reassembled (truncated to payloadBits). */
    BitString delivered;
    /** Positional bit errors remaining after correction. */
    std::uint64_t residualErrors = 0;
    /** Session duration (sync end to trojan completion), cycles. */
    Tick durationCycles = 0;
    /** Effective information rate, Kbits/s. */
    double effectiveKbps = 0.0;
    /** Goodput: payload bits minus residual errors, Kbits/s. */
    double payloadKbps = 0.0;
    bool completed = false;
};

} // namespace csim

#endif // COHERSIM_CHANNEL_ECC_HH
