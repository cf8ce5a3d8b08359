#include "channel/vector.hh"

#include <stdexcept>

#include "common/logging.hh"
#include "os/kernel.hh"
#include "prof/profiler.hh"

namespace csim
{

const char *
vectorName(VectorKind k)
{
    switch (k) {
      case VectorKind::coherence: return "coherence";
      case VectorKind::dirty: return "dirty";
      case VectorKind::lru: return "lru";
      case VectorKind::pagefault: return "pagefault";
    }
    return "?";
}

VectorKind
vectorFromName(const std::string &name)
{
    for (int i = 0; i < numVectorKinds; ++i) {
        const auto k = static_cast<VectorKind>(i);
        if (name == vectorName(k))
            return k;
    }
    throw std::invalid_argument(
        msgCat("unknown leakage vector '", name, "'"));
}

namespace
{

/**
 * The paper's coherence-state channel, ported onto the plugin seam.
 * Every hook forwards to the classic trojan/spy/calibration code so
 * the operation sequence — and with it every committed golden — is
 * bit-identical to the pre-plugin driver.
 */
class CoherenceVector final : public LeakageVector
{
  public:
    VectorKind kind() const override { return VectorKind::coherence; }

    CalibrationResult
    calibrate(const ChannelConfig &cfg) const override
    {
        return csim::calibrate(cfg.system, 400, cfg.params);
    }

    int
    localLoaders(const ScenarioInfo &sc) const override
    {
        return sc.localLoaders;
    }

    int
    remoteLoaders(const ScenarioInfo &sc) const override
    {
        return sc.remoteLoaders;
    }

    Task
    trojanTask(ThreadApi api, VectorRun &run) override
    {
        // Returns the classic coroutine directly (no wrapper frame):
        // the spawned body is the exact Task the pre-plugin driver
        // spawned.
        return trojanBody(api, *run.rig.crew, run.rig.shared.trojanVa,
                          run.scenario, run.cal, run.cfg.params,
                          run.cfg.system.timing, run.payload,
                          run.trojan);
    }

    Task
    spyTask(ThreadApi api, VectorRun &run) override
    {
        return spyBody(api, run.rig.shared.spyVa, run.scenario,
                       run.cal, run.cfg.params, run.spy,
                       run.collectTrace);
    }
};

} // namespace

void
LeakageVector::finish(VectorRun &run, ChannelReport &ch,
                      CounterRegistry &counters, SessionReport &)
{
    ScopedSpan span("rig.decode");
    ch.received = run.spy.bits;
    const ChannelMetrics retries = ch.metrics;
    ch.metrics = computeMetrics(
        ch.sent, ch.received, run.trojan.txStart,
        run.trojan.txEnd ? run.trojan.txEnd : run.rig.machine.sched.now(),
        run.cfg.system.timing);
    ch.metrics.pairId = run.rig.pairId;
    ch.metrics.nacks = retries.nacks;
    ch.metrics.retransmits = retries.retransmits;
    addChannelCounters(counters, run.rig.counterPrefix(), ch.metrics);
}

std::unique_ptr<LeakageVector> makeDirtyVector();
std::unique_ptr<LeakageVector> makeLruVector();
std::unique_ptr<LeakageVector> makePagefaultVector();

std::unique_ptr<LeakageVector>
makeLeakageVector(VectorKind kind)
{
    switch (kind) {
      case VectorKind::coherence:
        return std::make_unique<CoherenceVector>();
      case VectorKind::dirty: return makeDirtyVector();
      case VectorKind::lru: return makeLruVector();
      case VectorKind::pagefault: return makePagefaultVector();
    }
    fatal("unknown vector kind ", static_cast<int>(kind));
}

} // namespace csim
