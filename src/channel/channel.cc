#include "channel/channel.hh"

#include "common/logging.hh"
#include "os/kernel.hh"

namespace csim
{

const char *
defenseName(Defense d)
{
    switch (d) {
      case Defense::none: return "none";
      case Defense::targetedNoise: return "targeted-noise";
      case Defense::ksmGuard: return "ksm-guard";
      case Defense::llcNotify: return "llc-notify";
    }
    return "?";
}

Tick
ChannelConfig::deriveTimeout(std::size_t payload_bits,
                             double margin) const
{
    const auto period =
        static_cast<double>(params.nominalSamplePeriod(system.timing));
    // Payload bits plus the leading/trailing boundary phases, then
    // the end-of-reception marker run (N out-of-band samples).
    const double expected =
        (static_cast<double>(payload_bits) + 2.0) *
            params.samplesPerBit() * period +
        (params.endN + 1) * period;
    // Fixed slack for startup costs outside the bit clock: KSM merge
    // attempts, copy-on-write faults, calibration warm-up loads.
    constexpr Tick startupSlack = 2'000'000;
    return static_cast<Tick>(margin * expected * contentionFactor()) +
           startupSlack;
}

CorePlan
CorePlan::standard(const SystemConfig &sys)
{
    return fleetCorePlan(sys, 0);
}

CorePlan
fleetCorePlan(const SystemConfig &sys, int k)
{
    fatal_if(sys.sockets < 2,
             "the covert-channel experiments need two sockets");
    fatal_if(sys.coresPerSocket < 4,
             "the covert-channel experiments need >= 4 cores per "
             "socket");
    CorePlan plan;
    // Whole 4-core blocks keep a pair's own threads off each other's
    // cores: pairs within the socket's block budget get disjoint
    // attack cores (contending only through the shared uncore, the
    // interesting regime), later pairs wrap around and oversubscribe.
    const int off = (k % (sys.coresPerSocket / 4)) * 4;
    plan.spy = sys.coreOf(0, off);
    plan.controller = sys.coreOf(0, off + 3);
    plan.localLoaders = {sys.coreOf(0, off + 1),
                         sys.coreOf(0, off + 2)};
    const int roff = (k % (sys.coresPerSocket / 2)) * 2;
    plan.remoteLoaders = {sys.coreOf(1, roff),
                          sys.coreOf(1, roff + 1)};
    // Noise floats over the cores pair 0's attack threads do not
    // occupy (the OS balances unpinned kernel-build jobs onto free
    // cores), so the channel degrades through memory-system
    // contention, the mechanism the paper identifies (§VIII-C), not
    // through starvation of pinned attack threads. Other pairs'
    // blocks overlap it: co-tenant load ignores anyone's pinning.
    // Beyond six threads the noise cores double up; the agents are
    // duty-cycled, so two per core nearly double that core's memory
    // traffic, pushing the uncore queue, DRAM channel and QPI link
    // towards saturation — why 8 co-located kernel-build jobs
    // visibly disturb every attack variant in the paper.
    for (int i = 4; i < sys.coresPerSocket; ++i)
        plan.noise.push_back(sys.coreOf(0, i));
    for (int i = 2; i < sys.coresPerSocket; ++i)
        plan.noise.push_back(sys.coreOf(1, i));
    return plan;
}

ExperimentRig::ExperimentRig(Machine &host, const ChannelConfig &cfg,
                             const CorePlan &pair_plan, Combo csc,
                             std::uint32_t pair_id,
                             std::uint64_t pattern_seed)
    : machine(host), plan(pair_plan), pairId(pair_id)
{
    // Pair-suffixed process names keep `ps`-style listings readable
    // when one machine hosts dozens of adversary pairs.
    const std::string suffix =
        pairId == 0 ? std::string() : msgCat(".p", pairId);
    trojanProc = &machine.kernel.createProcess("trojan" + suffix);
    spyProc = &machine.kernel.createProcess("spy" + suffix);

    // The vector decides what "shared state" means: the page-fault
    // channel needs no shared mapping at all (its plugin creates two
    // private mergeable pages), the dirty-state channel needs a
    // *writable* shared page (the trojan modulates the dirty bit, and
    // KSM sharing would COW-split on the first store), the coherence
    // and LRU channels use the classic read-only/KSM path.
    if (cfg.vector == VectorKind::pagefault)
        return;
    if (cfg.vector == VectorKind::dirty) {
        shared =
            establishWritableBlock(machine, *trojanProc, *spyProc);
    } else {
        shared = establishSharedBlock(machine, *trojanProc, *spyProc,
                                      cfg.sharing, pattern_seed);
    }
    // Adversary optimization: within the 64 lines of the shared
    // page, pick one homed on the socket where the communication
    // combo's loaders run, so re-establishment after each spy flush
    // fetches from local memory. The non-coherence vectors keep
    // their probes on the spy's socket, so they always pick a
    // socket-0-homed line.
    if (cfg.system.timing.numaInterleave && cfg.system.sockets > 1) {
        const SocketId want =
            cfg.vector == VectorKind::coherence &&
                    comboRemoteLoaders(csc) > 0
                ? 1
                : 0;
        const PAddr base = shared.paddr;
        for (unsigned off = 0; off < pageBytes; off += lineBytes) {
            const SocketId home = static_cast<SocketId>(
                ((base + off) / lineBytes) % cfg.system.sockets);
            if (home == want) {
                shared.trojanVa += off;
                shared.spyVa += off;
                shared.paddr += off;
                break;
            }
        }
    }
}

void
ExperimentRig::spawnCrew(const ChannelConfig &cfg, int n_local,
                         int n_remote)
{
    using Cores = std::vector<CoreId>;
    crew = std::make_unique<PlacerCrew>(
        machine.kernel, machine.sched, *trojanProc,
        Cores(plan.localLoaders.begin(), plan.localLoaders.begin() + n_local),
        Cores(plan.remoteLoaders.begin(),
              plan.remoteLoaders.begin() + n_remote),
        cfg.params);
}

std::string
ExperimentRig::counterPrefix() const
{
    return pairId == 0 ? std::string() : msgCat("pair", pairId, ".");
}

void
addChannelCounters(CounterRegistry &reg, const std::string &prefix,
                   const ChannelMetrics &metrics)
{
    reg.counter(prefix + "ch.bits_sent") = metrics.bitsSent;
    reg.counter(prefix + "ch.bits_received") = metrics.bitsReceived;
    reg.counter(prefix + "ch.nacks") = metrics.nacks;
    reg.counter(prefix + "ch.retransmits") = metrics.retransmits;
}

} // namespace csim
