/**
 * @file
 * Pure helpers of the CoherSim benchmark, kept apart from the
 * simulator calls so the tests in perfbench/tests exercise them
 * directly: the tail-percentile rule for host times, the output
 * digest that proves a run's simulated results unchanged, and the
 * error-aware goodput every driver's results are scored with.
 */

#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_string.hh"

namespace perfbench
{

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p values; the
 * input need not be sorted. Returns 0 for an empty input.
 */
double percentile(std::vector<double> values, int p);

/** percentile(values, 50). */
double median(const std::vector<double> &values);

/**
 * The tail percentile reported for @p n samples: the highest whole
 * percentile that leaves at least ten samples strictly beyond its
 * nearest rank, and never below 50 — so 96 cells give p89, 32 cells
 * p68, and ten or fewer cells fall back to the median.
 */
int tailPercentile(std::size_t n);

/** Positions where @p received repeats @p sent, up to |sent|. */
std::uint64_t correctBits(const csim::BitString &sent,
                          const csim::BitString &received);

/**
 * Goodput in Kbit/s: @p correct payload bits delivered in
 * @p cycles of simulated time at @p clock_ghz. 0 when no simulated
 * time passed.
 */
double goodputKbps(std::uint64_t correct, std::uint64_t cycles,
                   double clock_ghz);

/**
 * Order-sensitive 64-bit FNV-1a digest of a stream of values. Each
 * value is framed by its width (and strings by their length), so
 * "ab","c" and "a","bc" digest differently; doubles digest by their
 * bit pattern, so any change in a simulated figure shows.
 */
class Digest
{
  public:
    void addU64(std::uint64_t v);
    void addDouble(double v);
    void addString(const std::string &s);
    void addBits(const csim::BitString &bits);

    std::uint64_t value() const { return h_; }

    /** value() as 16 lower-case hex digits. */
    std::string hex() const;

  private:
    void addBytes(const void *data, std::size_t n);

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
