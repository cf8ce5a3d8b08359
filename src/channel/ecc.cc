#include "channel/ecc.hh"

#include <algorithm>

#include "channel/session.hh"
#include "channel/trace_hooks.hh"
#include "common/logging.hh"

namespace csim
{

BitString
parityBits(const BitString &data)
{
    panic_if(data.size() != packetDataBits,
             "parity expects ", packetDataBits, " data bits");
    BitString parity;
    parity.reserve(packetParityBits);
    constexpr std::size_t chunk = 32;
    for (std::size_t c = 0; c < packetParityBits; ++c) {
        std::uint8_t p = 0;
        for (std::size_t i = 0; i < chunk; ++i)
            p ^= data[c * chunk + i] & 1;
        parity.push_back(p);
    }
    return parity;
}

BitString
encodePacket(std::uint8_t seq, const BitString &data512)
{
    panic_if(data512.size() != packetDataBits,
             "packet data must be ", packetDataBits, " bits");
    BitString out;
    out.reserve(packetTotalBits);
    const std::uint8_t inv = static_cast<std::uint8_t>(~seq);
    for (int i = 7; i >= 0; --i)
        out.push_back((seq >> i) & 1);
    for (int i = 7; i >= 0; --i)
        out.push_back((inv >> i) & 1);
    out.insert(out.end(), data512.begin(), data512.end());
    const BitString parity = parityBits(data512);
    out.insert(out.end(), parity.begin(), parity.end());
    return out;
}

std::optional<std::pair<std::uint8_t, BitString>>
decodePacket(const BitString &bits)
{
    if (bits.size() != packetTotalBits)
        return std::nullopt;
    std::uint8_t seq = 0, inv = 0;
    for (int i = 0; i < 8; ++i)
        seq = static_cast<std::uint8_t>((seq << 1) | (bits[i] & 1));
    for (int i = 8; i < 16; ++i)
        inv = static_cast<std::uint8_t>((inv << 1) | (bits[i] & 1));
    if (static_cast<std::uint8_t>(~seq) != inv)
        return std::nullopt;
    BitString data(bits.begin() + packetHeaderBits,
                   bits.begin() + packetHeaderBits + packetDataBits);
    const BitString expect = parityBits(data);
    for (std::size_t i = 0; i < packetParityBits; ++i) {
        if (expect[i] !=
            bits[packetHeaderBits + packetDataBits + i]) {
            return std::nullopt;
        }
    }
    return std::make_pair(seq, std::move(data));
}

namespace
{

/** Parity + NACK retransmission as one pair's link. */
class EccLink final : public PairLink
{
  public:
    explicit EccLink(const EccParams &ecc) : ecc_(ecc) {}

    void
    prepare(VectorRun &run) override
    {
        // Split into 512-bit packets, zero-padding the last one.
        const BitString &payload = run.payload;
        for (std::size_t off = 0; off < payload.size();
             off += packetDataBits) {
            BitString data(
                payload.begin() + static_cast<std::ptrdiff_t>(off),
                payload.begin() +
                    static_cast<std::ptrdiff_t>(std::min(
                        off + packetDataBits, payload.size())));
            data.resize(packetDataBits, 0);
            packets_.push_back(encodePacket(
                static_cast<std::uint8_t>(packets_.size() & 0xff),
                data));
        }
        report_.payloadBits = payload.size();
        report_.packets = static_cast<int>(packets_.size());
        period_ = run.cfg.params.nominalSamplePeriod(
            run.cfg.system.timing);
    }

    Task trojanTask(ThreadApi api, VectorRun &run) override;
    Task spyTask(ThreadApi api, VectorRun &run) override;

    bool
    trojanEnds() const override
    {
        return true;
    }

    void
    finish(VectorRun &run, ChannelReport &ch, CounterRegistry &,
           SessionReport &out) override
    {
        EccReport &report = out.ecc;
        report = std::move(report_);
        report.completed = ch.completed;
        // Reassemble and truncate to the payload length.
        const BitString &payload = run.payload;
        for (const BitString &data : accepted_) {
            report.delivered.insert(report.delivered.end(),
                                    data.begin(), data.end());
        }
        if (report.delivered.size() > payload.size())
            report.delivered.resize(payload.size());
        for (std::size_t i = 0; i < payload.size(); ++i) {
            if (i >= report.delivered.size() ||
                report.delivered[i] != payload[i])
                ++report.residualErrors;
        }
        report.durationCycles =
            trojanEnd_ > sessionStart_ ? trojanEnd_ - sessionStart_ : 0;
        const TimingParams &timing = run.cfg.system.timing;
        report.effectiveKbps =
            timing.kbps(report.payloadBits, report.durationCycles);
        report.payloadKbps = timing.kbps(
            report.payloadBits -
                std::min<std::uint64_t>(report.residualErrors,
                                        report.payloadBits),
            report.durationCycles);
    }

  private:
    EccParams ecc_;
    Tick period_ = 0;
    std::vector<BitString> packets_;
    /** Counts the trojan keeps while the session runs. */
    EccReport report_;
    std::vector<BitString> accepted_;
    bool trojanDone_ = false;
    Tick sessionStart_ = 0;  //!< sync end (payload clock starts)
    Tick trojanEnd_ = 0;
};

Task
EccLink::trojanTask(ThreadApi api, VectorRun &run)
{
    PlacerCrew &crew = *run.rig.crew;
    const VAddr block = run.rig.shared.trojanVa;
    const ChannelParams &params = run.cfg.params;
    co_await trojanSyncPhase(api, block, run.cal, params, run.trojan);
    sessionStart_ = api.now();
    const double cached_threshold = run.cal.dramBand.lo - 2.0;

    for (const BitString &packet : packets_) {
        int attempts = 0;
        for (;;) {
            TrojanResult tr;
            co_await trojanTransmit(api, crew, block, run.scenario,
                                    params, period_, packet, tr);
            report_.rawBitsSent += packet.size();
            // Let the spy run into its end-of-packet detection.
            co_await api.spinUntil(
                tr.txEnd +
                static_cast<Tick>(params.endN + 2) * period_);
            // Acknowledgement window: probe whether the spy is
            // holding B cached (its NACK signal).
            int cached = 0;
            for (int i = 0; i < ecc_.ackSamples; ++i) {
                co_await api.flush(block);
                co_await api.spin(params.ts);
                const Tick lat = co_await api.load(block);
                if (static_cast<double>(lat) < cached_threshold)
                    ++cached;
            }
            const bool nack = cached >= ecc_.nackThreshold;
            if (nack) {
                ++report_.nacks;
                chEvent(api, TraceEventType::chNack,
                        static_cast<std::uint64_t>(attempts + 1));
            }
            // Settle before the next lead-in so the spy is back in
            // its wait-for-start phase.
            co_await api.spin(3 * period_);
            if (!nack)
                break;
            ++report_.retransmissions;
            chEvent(api, TraceEventType::chRetransmit,
                    report_.rawBitsSent / packetTotalBits);
            if (++attempts > ecc_.maxRetries) {
                chEvent(api, TraceEventType::chRetransmitExhausted,
                        static_cast<std::uint64_t>(attempts - 1));
                warn("ecc: giving up on a packet after ",
                     ecc_.maxRetries, " retries");
                break;
            }
        }
    }
    crew.idle();
    trojanDone_ = true;
    trojanEnd_ = api.now();
}

Task
EccLink::spyTask(ThreadApi api, VectorRun &run)
{
    const VAddr block = run.rig.shared.spyVa;
    const ChannelParams &params = run.cfg.params;
    LatencyBand tc = run.cal.band(run.scenario.csc);
    LatencyBand tb = run.cal.band(run.scenario.csb);
    LatencyBand dram = run.cal.dramBand;
    {
        std::vector<LatencyBand *> used = {&tc, &tb, &dram};
        claimGaps(used, params.gapClaim);
    }
    int last_seq = -1;

    while (accepted_.size() < packets_.size() && !trojanDone_) {
        // Wait for the packet lead-in boundary.
        int consecutive_tb = 0;
        bool started = false;
        while (!started && !trojanDone_) {
            co_await api.flush(block);
            co_await api.spin(params.ts);
            const Tick lat = co_await api.load(block);
            const auto cls =
                classifySample(static_cast<double>(lat), tc, tb);
            if (cls == SampleClass::boundary) {
                if (++consecutive_tb >= 2)
                    started = true;
            } else {
                consecutive_tb = 0;
            }
        }
        if (!started)
            break;

        // Receive the packet's bits.
        IncrementalTranslator translator(params.thold());
        translator.feed(SampleClass::boundary);
        BitString bits;
        int out_of_band = 0;
        while (out_of_band < params.endN) {
            co_await api.flush(block);
            co_await api.spin(params.ts);
            const Tick lat = co_await api.load(block);
            const auto cls =
                classifySample(static_cast<double>(lat), tc, tb);
            if (auto bit = translator.feed(cls))
                bits.push_back(static_cast<std::uint8_t>(*bit));
            if (cls == SampleClass::outOfBand) {
                ++out_of_band;
            } else {
                // Slip reported at recovery, as in spyBody, so the
                // end-of-packet marker run never counts as one.
                if (out_of_band > 0) {
                    chEvent(api, TraceEventType::chSyncSlip,
                            static_cast<std::uint64_t>(out_of_band));
                }
                out_of_band = 0;
            }
        }
        if (auto bit = translator.finish())
            bits.push_back(static_cast<std::uint8_t>(*bit));

        const auto decoded = decodePacket(bits);
        if (decoded) {
            if (static_cast<int>(decoded->first) != last_seq) {
                accepted_.push_back(decoded->second);
                last_seq = decoded->first;
                chEvent(api, TraceEventType::chPacketAccepted,
                        decoded->first);
            }
            // ACK (no NACK): stay quiet through the trojan's window.
            co_await api.spin(
                static_cast<Tick>(ecc_.ackSamples + 2) * period_);
        } else {
            // NACK: keep B cached while the trojan probes.
            const Tick until =
                api.now() +
                static_cast<Tick>(ecc_.ackSamples + 4) * period_;
            while (api.now() < until) {
                co_await api.load(block);
                co_await api.spin(params.helperGap);
            }
        }
    }
}

} // namespace

std::unique_ptr<PairLink>
makeEccLink(const EccParams &ecc)
{
    return std::make_unique<EccLink>(ecc);
}

} // namespace csim
