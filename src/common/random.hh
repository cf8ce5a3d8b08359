/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * A small xoshiro256** implementation is used instead of <random>
 * engines so that simulation results are bit-identical across
 * standard-library implementations.
 */

#ifndef COHERSIM_COMMON_RANDOM_HH
#define COHERSIM_COMMON_RANDOM_HH

#include <cstdint>

namespace csim
{

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * All simulator randomness (timing jitter, workload address streams,
 * transmitted bit patterns) flows through instances of this class so a
 * run is fully reproducible from its seeds.
 */
/**
 * Decorrelated per-job seed: one splitmix64 step of the base seed at
 * stream position @p index. Bit-exact on every platform, and jobs
 * with adjacent indices get statistically independent streams. Both
 * the host-parallel runner and the fleet sessions derive their
 * per-unit seeds through this, so results never depend on execution
 * order.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t index);

class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double sd);

  private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace csim

#endif // COHERSIM_COMMON_RANDOM_HH
