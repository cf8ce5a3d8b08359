#include "phy/phy_channel.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "channel/session.hh"
#include "channel/trace_hooks.hh"
#include "common/logging.hh"
#include "phy/adaptive.hh"
#include "phy/frame.hh"
#include "phy/preamble.hh"
#include "phy/soft.hh"
#include "prof/profiler.hh"

namespace csim
{

namespace
{

/**
 * Publish the per-stage counters into @p reg under
 * `<prefix>ch.phy.*`, next to the common `<prefix>ch.*` set.
 */
void
addPhyCounters(CounterRegistry &reg, const std::string &prefix,
               const PhyReport &report)
{
    const std::string base = prefix + "ch.phy.";
    reg.counter(base + "frames_sent") = report.stages.framesSent;
    reg.counter(base + "frames_accepted") =
        report.stages.framesAccepted;
    reg.counter(base + "preamble_locks") =
        report.stages.preambleLocks;
    reg.counter(base + "header_bad") = report.stages.headerBad;
    reg.counter(base + "fec_corrected") = report.stages.fecCorrected;
    reg.counter(base + "fec_uncorrectable") =
        report.stages.fecUncorrectable;
    reg.counter(base + "wire_bits") = report.rawBitsSent;
    // The profile the session actually ran (the adaptive controller
    // may override the configured one) and, when adaptive, the raw
    // rate it picked — so report consumers need no side channel.
    reg.counter(base + "profile") =
        static_cast<std::uint64_t>(report.profileUsed);
    if (report.rateKbps > 0.0)
        reg.counter(base + "adapt_rate_kbps") =
            static_cast<std::uint64_t>(report.rateKbps);
}

/**
 * The framed FEC stack as one pair's link: the operating point, the
 * wire frames and everything the two coroutines share and record
 * besides the pair's trojan/spy results.
 */
class PhyLink final : public PairLink
{
  public:
    /**
     * Resolve the operating point (running the adaptive controller
     * when cfg.phy.adaptive) and pre-encode the payload into wire
     * frames.
     */
    void prepare(VectorRun &run) override;

    /** Trojan controller: sync handshake, then one burst per frame. */
    Task trojanTask(ThreadApi api, VectorRun &run) override;

    /**
     * Spy: sample, soft-demap, hunt for preambles, decode headers and
     * FEC-protected bodies until the trojan falls silent. run.spy.bits
     * collects the demapped wire bits, for diagnostics.
     */
    Task spyTask(ThreadApi api, VectorRun &run) override;

    void
    finish(VectorRun &run, ChannelReport &ch, CounterRegistry &counters,
           SessionReport &out) override
    {
        const TimingParams &timing = run.cfg.system.timing;
        out.phy = finalize(run.payload, timing,
                           run.rig.machine.sched.now());
        out.phy.completed = ch.completed;
        ch.received = out.phy.delivered;
        // The common view: payload-level accuracy and goodput, next
        // to the wire rate that keeps the FEC expansion visible.
        ch.metrics = computeMetrics(
            run.payload, ch.received, run.trojan.txStart,
            trojanDone_ ? trojanEnd_ : run.trojan.txEnd, timing);
        ch.metrics.payloadKbps = ch.metrics.effectiveKbps;
        ch.metrics.rawKbps =
            timing.kbps(out.phy.rawBitsSent, ch.metrics.durationCycles);
        addChannelCounters(counters, run.rig.counterPrefix(),
                           ch.metrics);
        addPhyCounters(counters, run.rig.counterPrefix(), out.phy);
    }

  private:
    /**
     * Harvest the session into a report. @p fallback_end bounds the
     * duration when the trojan never finished (timeout).
     */
    PhyReport finalize(const BitString &payload,
                       const TimingParams &timing,
                       Tick fallback_end) const;

    ChannelParams params_;   //!< post-adaptive operating parameters
    PhyConfig phy_;          //!< post-adaptive profile and knobs
    Tick period_ = 0;        //!< nominal sample period under params
    std::vector<BitString> frames_;  //!< wire frames to transmit

    /** @name Adaptive-controller evidence (zero when disabled) */
    /** @{ */
    double rateKbps_ = 0.0;
    double bandSeparation_ = 0.0;
    /** @} */

    /** @name Live coroutine state */
    /** @{ */
    bool trojanDone_ = false;
    Tick sessionStart_ = 0;  //!< sync end (payload clock starts)
    Tick trojanEnd_ = 0;
    /** @} */

    /** @name Outputs */
    /** @{ */
    /**
     * Accepted frame chunks keyed by *absolute* frame index,
     * unwrapped from the 4-bit sequence numbers: a lost frame
     * leaves a gap (an erasure) instead of shifting every later
     * chunk's position.
     */
    std::vector<std::pair<std::size_t, BitString>> accepted_;
    PhyStageStats stages_;
    std::uint64_t rawBitsSent_ = 0;
    /** @} */
};

void
PhyLink::prepare(VectorRun &run)
{
    const ChannelConfig &cfg = run.cfg;
    panic_if(linkFor(cfg) != LinkKind::phy,
             "the phy link needs a hamming profile or adaptive mode");
    params_ = cfg.params;
    phy_ = cfg.phy;

    if (cfg.phy.adaptive) {
        const AdaptiveDecision d = phyChooseOperatingPoint(
            run.cal, run.scenario, cfg.noiseThreads);
        phy_.profile = d.profile;
        params_ = ChannelParams::forTargetKbps(d.rateKbps,
                                                cfg.system.timing);
        rateKbps_ = d.rateKbps;
        bandSeparation_ = d.separation;
    }
    period_ = params_.nominalSamplePeriod(cfg.system.timing);

    // Pre-encode the payload: fixed-size chunks, 4-bit sequence
    // numbers. FEC mode never retransmits, so consecutive frames
    // always carry distinct sequence numbers and the spy's duplicate
    // guard only ever drops false decodes.
    ScopedSpan span("phy.encode");
    const std::size_t chunk_bits =
        static_cast<std::size_t>(phy_.frameNibbles) * hammingDataBits;
    for (std::size_t off = 0; off < run.payload.size();
         off += chunk_bits) {
        const BitString chunk(
            run.payload.begin() + static_cast<std::ptrdiff_t>(off),
            run.payload.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min(off + chunk_bits, run.payload.size())));
        frames_.push_back(phyEncodeFrame(
            static_cast<std::uint8_t>(frames_.size() & 0xf), chunk,
            phy_));
    }
}

Task
PhyLink::trojanTask(ThreadApi api, VectorRun &run)
{
    PlacerCrew &crew = *run.rig.crew;
    const VAddr block = run.rig.shared.trojanVa;
    TrojanResult &trojan = run.trojan;
    co_await trojanSyncPhase(api, block, run.cal, params_, trojan);
    sessionStart_ = api.now();
    if (rateKbps_ > 0.0) {
        chEvent(api, TraceEventType::chPhyAdapt,
                static_cast<std::uint64_t>(phy_.profile),
                static_cast<std::uint64_t>(rateKbps_));
    }

    bool first = true;
    for (const BitString &frame : frames_) {
        TrojanResult tr;
        co_await trojanTransmit(api, crew, block, run.scenario,
                                params_, period_, frame, tr);
        if (first) {
            trojan.txStart = tr.txStart;
            first = false;
        }
        trojan.txEnd = tr.txEnd;
        rawBitsSent_ += frame.size();
        ++stages_.framesSent;
        // Brief inter-frame silence: the spy's translator parks in
        // its boundary state and the next preamble re-locks it.
        co_await api.spin(2 * period_);
    }
    crew.idle();
    trojanEnd_ = api.now();
    trojanDone_ = true;
}

Task
PhyLink::spyTask(ThreadApi api, VectorRun &run)
{
    const VAddr block = run.rig.shared.spyVa;
    SpyResult &spy = run.spy;
    LatencyBand tc = run.cal.band(run.scenario.csc);
    LatencyBand tb = run.cal.band(run.scenario.csb);
    LatencyBand dram = run.cal.dramBand;
    {
        std::vector<LatencyBand *> used = {&tc, &tb, &dram};
        claimGaps(used, params_.gapClaim);
    }

    SoftTranslator translator(params_);
    PreambleDetector detector(preamblePattern(phy_.preambleLen),
                              preambleMismatchBudget(phy_.preambleLen));
    enum class Rx : std::uint8_t { hunt, header, body };
    Rx rx = Rx::hunt;
    BitString header_bits;
    std::vector<SoftBit> body_bits;
    PhyFrameHeader hdr;
    // Absolute frame index recovered from the 4-bit wire sequence:
    // the delta to the previously accepted frame's sequence number
    // unwraps it (frames arrive in transmit order; up to 15
    // consecutive losses stay unambiguous).
    int last_seq = -1;
    std::size_t frame_index = 0;
    int out_of_band = 0;
    std::uint64_t wire_index = 0;

    // The FEC stack has no reverse channel, so the spy simply
    // listens until the trojan has fallen silent for good.
    const auto session_over = [&] {
        return trojanDone_ && api.now() > trojanEnd_ + 4 * period_;
    };

    while (!session_over()) {
        co_await api.flush(block);
        co_await api.spin(params_.ts);
        const Tick lat = co_await api.load(block);
        const double latency = static_cast<double>(lat);
        const auto cls = classifySample(latency, tc, tb);
        if (cls == SampleClass::outOfBand) {
            ++out_of_band;
        } else {
            // Slips reported at recovery, as in spyBody, so the
            // inter-frame quiet gaps never count as one each sample.
            if (out_of_band > 0) {
                chEvent(api, TraceEventType::chSyncSlip,
                        static_cast<std::uint64_t>(out_of_band));
            }
            out_of_band = 0;
        }

        const auto soft = translator.feed(
            cls, classifyConfidence(latency, tc, tb, cls));
        if (!soft)
            continue;
        ++stages_.wireBitsReceived;
        spy.bits.push_back(soft->bit);
        chEvent(api, TraceEventType::chRxBit, soft->bit,
                wire_index++);

        switch (rx) {
          case Rx::hunt:
            if (detector.push(soft->bit)) {
                ++stages_.preambleLocks;
                chEvent(api, TraceEventType::chPhyPreambleLock,
                        static_cast<std::uint64_t>(
                            detector.lastMismatches()));
                if (!spy.sawTransmission) {
                    spy.sawTransmission = true;
                    spy.rxStart = api.now();
                    chEvent(api, TraceEventType::chRxStart);
                }
                header_bits.clear();
                rx = Rx::header;
            }
            break;
          case Rx::header:
            header_bits.push_back(soft->bit);
            if (header_bits.size() == phyHeaderWireBits) {
                // Synchronous between two co_awaits: safe to
                // wall-scope (never held across a suspension).
                ScopedSpan hdr_span("phy.decode.header");
                if (const auto h =
                        phyDecodeHeader(header_bits, phy_)) {
                    hdr = *h;
                    body_bits.clear();
                    rx = Rx::body;
                } else {
                    ++stages_.headerBad;
                    chEvent(api, TraceEventType::chPhyHeaderBad,
                            stages_.headerBad);
                    rx = Rx::hunt;
                }
            }
            break;
          case Rx::body:
            body_bits.push_back(*soft);
            if (body_bits.size() == phyBodyWireBits(hdr.nibbles)) {
                ScopedSpan body_span("phy.decode.body");
                const PhyBodyResult res =
                    phyDecodeBody(body_bits, hdr, phy_);
                stages_.fecBlocks +=
                    static_cast<std::uint64_t>(res.blocks);
                stages_.fecCorrected +=
                    static_cast<std::uint64_t>(res.corrected);
                stages_.fecUncorrectable +=
                    static_cast<std::uint64_t>(res.uncorrectable);
                if (res.corrected > 0) {
                    chEvent(api, TraceEventType::chPhyFecCorrected,
                            static_cast<std::uint64_t>(res.corrected),
                            hdr.seq);
                }
                if (res.uncorrectable > 0) {
                    chEvent(api, TraceEventType::chPhyFecBad,
                            static_cast<std::uint64_t>(
                                res.uncorrectable),
                            hdr.seq);
                }
                const bool dup = static_cast<int>(hdr.seq) == last_seq;
                if (dup) {
                    ++stages_.framesDuplicate;
                } else {
                    if (last_seq < 0) {
                        // Losses before the first lock: the raw
                        // sequence is the absolute index (mod 16).
                        frame_index = hdr.seq;
                    } else {
                        frame_index += static_cast<std::size_t>(
                            (static_cast<int>(hdr.seq) - last_seq +
                             16) %
                            16);
                    }
                    accepted_.emplace_back(frame_index, res.bits);
                    last_seq = hdr.seq;
                    ++stages_.framesAccepted;
                }
                chEvent(api, TraceEventType::chPhyFrame, hdr.seq,
                        dup ? 0 : 1);
                spy.rxEnd = api.now();
                detector.reset();
                rx = Rx::hunt;
            }
            break;
        }
    }
    chEvent(api, TraceEventType::chRxEnd, stages_.wireBitsReceived);
}

PhyReport
PhyLink::finalize(const BitString &payload, const TimingParams &timing,
                  Tick fallback_end) const
{
    ScopedSpan span("phy.finalize");
    PhyReport r;
    r.payloadBits = payload.size();
    r.frames = static_cast<int>(frames_.size());
    r.rawBitsSent = rawBitsSent_;
    r.profileUsed = phy_.profile;
    r.rateKbps = rateKbps_;
    r.bandSeparation = bandSeparation_;
    r.stages = stages_;

    // Place each accepted chunk at its sequence-derived offset;
    // lost frames stay zero-filled erasures instead of shifting
    // every later chunk out of position.
    const std::size_t chunk_bits =
        static_cast<std::size_t>(phy_.frameNibbles) *
        hammingDataBits;
    r.delivered.assign(payload.size(), 0);
    for (const auto &[index, chunk] : accepted_) {
        const std::size_t off = index * chunk_bits;
        for (std::size_t i = 0;
             i < chunk.size() && off + i < r.delivered.size(); ++i) {
            r.delivered[off + i] = chunk[i];
        }
    }
    if (accepted_.empty())
        r.delivered.clear();
    for (std::size_t i = 0; i < payload.size(); ++i) {
        if (i >= r.delivered.size() || r.delivered[i] != payload[i])
            ++r.residualErrors;
    }

    const Tick end = trojanDone_ ? trojanEnd_ : fallback_end;
    r.durationCycles =
        end > sessionStart_ ? end - sessionStart_ : 0;
    r.effectiveKbps = timing.kbps(r.payloadBits, r.durationCycles);
    const std::uint64_t good =
        r.payloadBits - std::min(r.residualErrors, r.payloadBits);
    r.payloadKbps = timing.kbps(good, r.durationCycles);
    return r;
}

} // namespace

std::unique_ptr<PairLink>
makePhyLink()
{
    return std::make_unique<PhyLink>();
}

} // namespace csim
