/**
 * @file
 * The benchmark's workloads: each is a list of cells (one
 * runExperiment call each) resolved through the public
 * ConfigResolver, plus the calibrations the cells share. A cell's
 * simulated outcome is reduced to a digest, a well-formedness
 * verdict and the exact counts the per-layer report sums.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"

namespace perfbench
{

/** One runExperiment call. Pointers reference the owning Setup. */
struct Cell
{
    std::string label;
    csim::ExperimentSpec spec;
    const csim::CalibrationResult *cal = nullptr;
    /** Fixed payload; null transmits spec.makePayload() (and is
     *  ignored on the fleet path, which derives per-pair payloads). */
    const csim::BitString *payload = nullptr;
    /** Attach a CC-Hunter detector with these params (single/PHY
     *  cells; the fleet driver always runs its own). */
    bool detect = false;
    csim::DetectorParams detector;
};

/** A workload, resolved and calibrated, ready to run its cells. */
struct Setup
{
    /** Runner workers of the untraced runs. */
    int workers = 1;
    std::vector<Cell> cells;
    /** deques: cells keep pointers into them. */
    std::deque<csim::CalibrationResult> cals;
    std::deque<csim::BitString> payloads;
    /** Host time of the config-resolution and calibration phases. */
    double resolveMs = 0.0;
    double calibrateMs = 0.0;
};

/** Names accepted by buildSetup, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Resolve @p workload's cells for @p seed and run every calibration
 * they need, one per distinct (system, vector). Opens the profiler
 * spans bench.setup / config.resolve / channel.calibrate (no-ops
 * while the profiler is off). Throws std::invalid_argument on an
 * unknown workload name.
 */
Setup buildSetup(const std::string &workload, std::uint64_t seed);

/** The reduced result of one cell. */
struct CellOutcome
{
    /** Digest of every simulated output of the cell. */
    std::uint64_t digest = 0;
    /** Empty when the cell ran and its outputs are well-formed. */
    std::string error;
    /** Operations: 1 per single/PHY cell, 1 per fleet pair. */
    int operations = 1;

    /** @name Channel results, summed over the cell's pairs */
    /** @{ */
    std::uint64_t payloadBits = 0;  //!< payload bits offered
    std::uint64_t correctBits = 0;  //!< delivered at their position
    std::uint64_t wireBits = 0;     //!< bits the trojan modulated
    std::uint64_t txCycles = 0;     //!< simulated transmission time
    double clockGhz = 0.0;
    double accurateBits = 0.0;      //!< accuracy x bits sent
    std::uint64_t safetyStops = 0;
    std::uint64_t nacks = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t fecUncorrectable = 0;
    /** @} */
    /** Fleet machine time (the fleet driver has no rig.run span). */
    std::uint64_t fleetCycles = 0;
    /** Mem-category events a CC-Hunter observed. */
    std::uint64_t detectEvents = 0;
    /** Machine counters of the cell's run. */
    csim::CounterRegistry counters;
};

/** Hands every mem-category event of the machine it is attached to
 *  to @p onEvent: the events a default CC-Hunter observes. */
struct MemEventTap : csim::BusTap
{
    std::function<void(const csim::TraceEvent &)> onEvent;

    void attach(csim::TraceBus &bus, int num_cores) override;
    void detach() override;

  private:
    csim::TraceBus *bus_ = nullptr;
    int sub_ = 0;
};

/**
 * Run @p cell under a bench.cell profiler span and reduce it. With
 * @p count_events a fleet cell also counts its detector's events
 * through a bus tap (single/PHY cells read their own detector). Never
 * throws: an exception or malformed output lands in
 * CellOutcome::error.
 */
CellOutcome runCell(const Cell &cell, bool count_events);

/**
 * The first cell of the defended workload's defense grid (no
 * defence, Table I row 1, KSM sharing) for @p seed: the detect probe
 * replays its event stream.
 */
csim::ExperimentSpec detectProbeSpec(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
