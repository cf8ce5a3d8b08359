#include "channel/experiment.hh"

#include "prof/profiler.hh"

namespace csim
{

ExperimentResult
runExperiment(const ExperimentSpec &spec, const CalibrationResult *cal,
              const BitString *payload)
{
    ExperimentResult out;
    if (spec.fleet.pairs > 1) {
        ScopedSpan span("experiment.fleet");
        out.kind = ExperimentKind::fleet;
        out.fleet = runSession(spec.toFleetSession(), {}, cal).fleet;
        return out;
    }
    SessionConfig cfg;
    cfg.channel = spec.toChannelConfig();
    cfg.link = linkFor(cfg.channel);
    out.kind = cfg.link == LinkKind::phy ? ExperimentKind::phy
                                         : ExperimentKind::single;
    const BitString bits = payload ? *payload : spec.makePayload();
    ScopedSpan span(out.kind == ExperimentKind::phy
                        ? "experiment.phy"
                        : "experiment.single");
    SessionReport rep = runSession(cfg, bits, cal);
    out.channel = std::move(rep.channel);
    out.phy = std::move(rep.phy);
    return out;
}

} // namespace csim
