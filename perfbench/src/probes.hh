/**
 * @file
 * Layer probes: host ns per operation of one simulator path at a
 * time, on a quiet (jitter-free) machine. Every probe first checks
 * that it still exercises the path its name says — the exact count
 * of operations the path's own counter recorded, and the simulated
 * cycles those operations took — and throws ProbeError otherwise,
 * so a probe that drifts off its path fails instead of getting
 * faster.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench
{

class ProbeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

struct ProbeResult
{
    std::string name;      //!< per-layer metric name
    double nsPerOp = 0.0;  //!< median over timed batches
    std::uint64_t ops = 0; //!< operations timed
};

/**
 * Run every probe, each timed for about @p budget_s seconds. The
 * detect probe replays a defended cell built from @p seed.
 */
std::vector<ProbeResult> runProbes(std::uint64_t seed, double budget_s);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
