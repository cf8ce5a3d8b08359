#include "channel/symbols.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "channel/session.hh"
#include "common/logging.hh"

namespace csim
{

Combo
symbolCombo(int symbol)
{
    panic_if(symbol < 0 || symbol >= 4, "symbol out of range: ",
             symbol);
    return allCombos()[static_cast<std::size_t>(symbol)];
}

namespace
{

/** The four symbol decision bands with gaps partially claimed. */
struct SymbolBands
{
    SymbolBands(const CalibrationResult &cal, double gap_claim)
        : dram(cal.dramBand)
    {
        for (int s = 0; s < 4; ++s)
            bands[s] = cal.band(symbolCombo(s));
        std::vector<LatencyBand *> used = {&bands[0], &bands[1],
                                           &bands[2], &bands[3],
                                           &dram};
        claimGaps(used, gap_claim);
    }

    /** Symbol value for a latency, or -1 when out of band.
     *  Overlapping bands resolve to the nearest band centre. */
    int
    classify(double lat) const
    {
        int best = -1;
        double best_dist = 0.0;
        for (int s = 0; s < 4; ++s) {
            if (!bands[s].contains(lat))
                continue;
            const double dist = std::abs(lat - bands[s].mid());
            if (best < 0 || dist < best_dist) {
                best = s;
                best_dist = dist;
            }
        }
        return best;
    }

    std::array<LatencyBand, 4> bands;
    LatencyBand dram;
};

/** 2-bit symbols over all four combinations as one pair's link. */
class SymbolLink final : public PairLink
{
  public:
    explicit SymbolLink(const SymbolParams &params) : params_(params) {}

    // The symbol channel needs the full crew: two loaders per socket.
    int localLoaders(const ScenarioInfo &) const override { return 2; }
    int remoteLoaders(const ScenarioInfo &) const override { return 2; }

    Combo
    carrier(const ScenarioInfo &) const override
    {
        return Combo::localShared;
    }

    void
    prepare(VectorRun &run) override
    {
        BitString padded = run.payload;
        if (padded.size() % bitsPerSymbol)
            padded.push_back(0);
        report_.sentSymbols = bitsToSymbols(padded, bitsPerSymbol);
        report_.sent = std::move(padded);
        period_ = run.cfg.params.nominalSamplePeriod(
            run.cfg.system.timing);
    }

    Task trojanTask(ThreadApi api, VectorRun &run) override;
    Task spyTask(ThreadApi api, VectorRun &run) override;

    void
    finish(VectorRun &run, ChannelReport &ch, CounterRegistry &,
           SessionReport &out) override
    {
        SymbolReport &report = out.symbols;
        report = std::move(report_);
        report.trojan = run.trojan;
        report.completed = ch.completed;
        report.received =
            symbolsToBits(report.receivedSymbols, bitsPerSymbol);
        report.metrics = computeMetrics(
            report.sent, report.received, run.trojan.txStart,
            run.trojan.txEnd ? run.trojan.txEnd
                             : run.rig.machine.sched.now(),
            run.cfg.system.timing);
    }

  private:
    SymbolParams params_;
    Tick period_ = 0;
    SymbolReport report_;
};

Task
SymbolLink::trojanTask(ThreadApi api, VectorRun &run)
{
    PlacerCrew &crew = *run.rig.crew;
    const VAddr block = run.rig.shared.trojanVa;
    const ChannelParams &params = run.cfg.params;
    TrojanResult &out = run.trojan;
    co_await trojanSyncPhase(api, block, run.cal, params, out);
    out.txStart = api.now();
    Tick phase_start = api.now();
    // Phase switches do not flush B (see trojanTransmit): the spy's
    // per-sample flush retires stale copies within one sample.
    auto hold_symbol = [&](int sym, int periods) -> Task {
        crew.activate(symbolCombo(sym), block);
        phase_start += static_cast<Tick>(periods) * period_;
        co_await api.spinUntil(phase_start);
    };
    auto hold_quiet = [&](int periods) -> Task {
        crew.idle();
        phase_start += static_cast<Tick>(periods) * period_;
        co_await api.spinUntil(phase_start);
    };
    // Lead-in: a preamble symbol the spy discards, so it can lock on.
    co_await hold_symbol(0, params_.cs + 2);
    co_await hold_quiet(params_.cbSym);
    for (int sym : report_.sentSymbols) {
        co_await hold_symbol(sym, params_.cs);
        co_await hold_quiet(params_.cbSym);
    }
    crew.idle();
    out.txEnd = api.now();
}

Task
SymbolLink::spyTask(ThreadApi api, VectorRun &run)
{
    const VAddr block = run.rig.shared.spyVa;
    const ChannelParams &params = run.cfg.params;
    const SymbolBands decision(run.cal, params.gapClaim);
    // Phase 1: wait for the preamble (two consecutive in-band
    // samples of any symbol value).
    int consecutive = 0;
    for (;;) {
        co_await api.flush(block);
        co_await api.spin(params.ts);
        const Tick lat = co_await api.load(block);
        if (decision.classify(static_cast<double>(lat)) >= 0) {
            if (++consecutive >= 2)
                break;
        } else {
            consecutive = 0;
        }
    }

    // Phase 2: reception. Counts per symbol value accumulate while
    // in-band; a quiet run of cbSym samples commits the symbol by
    // majority vote.
    std::array<int, 4> counts{};
    auto have_samples = [&] {
        return std::any_of(counts.begin(), counts.end(),
                           [](int c) { return c > 0; });
    };
    auto commit = [&] {
        if (!have_samples())
            return;
        const auto best =
            std::max_element(counts.begin(), counts.end());
        report_.receivedSymbols.push_back(
            static_cast<int>(best - counts.begin()));
        counts.fill(0);
    };
    // The two lock-on samples belong to the preamble symbol.
    counts[0] = 2;
    int quiet_run = 0;
    for (;;) {
        co_await api.flush(block);
        co_await api.spin(params.ts);
        const Tick lat = co_await api.load(block);
        if (run.collectTrace)
            report_.trace.push_back(SpySample{api.now(), lat});
        const int sym = decision.classify(static_cast<double>(lat));
        if (sym >= 0) {
            ++counts[static_cast<std::size_t>(sym)];
            quiet_run = 0;
        } else {
            ++quiet_run;
            if (quiet_run == params_.commitQuiet())
                commit();
            if (quiet_run >= params_.endN)
                break;
        }
    }
    commit();
    // Drop the preamble symbol.
    if (!report_.receivedSymbols.empty())
        report_.receivedSymbols.erase(report_.receivedSymbols.begin());
}

} // namespace

std::unique_ptr<PairLink>
makeSymbolLink(const SymbolParams &params)
{
    return std::make_unique<SymbolLink>(params);
}

} // namespace csim
