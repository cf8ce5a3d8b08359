/**
 * @file
 * Tests of the benchmark's pure helpers: the tail-percentile rule,
 * the output digest and the error-aware goodput. Run through ctest
 * in the benchmark's build directory, or `python3 perfbench/run.py
 * --selftest`.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.hh"

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << '\n';
        ++failures;
    }
}

void
testTailPercentile()
{
    using perfbench::tailPercentile;
    // At least ten cells beyond the nearest rank of the percentile.
    check(tailPercentile(96) == 89, "96 cells -> p89");
    check(tailPercentile(32) == 68, "32 cells -> p68");
    check(tailPercentile(1000) == 99, "1000 cells -> p99");
    check(tailPercentile(20) == 50, "20 cells -> p50");
    check(tailPercentile(10) == 50, "10 cells fall back to p50");
    check(tailPercentile(1) == 50, "one cell falls back to p50");
    check(tailPercentile(0) == 50, "no cells fall back to p50");
    for (std::size_t n = 21; n <= 2000; ++n) {
        const int p = tailPercentile(n);
        const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
        const std::size_t next =
            (static_cast<std::size_t>(p + 1) * n + 99) / 100;
        check(n - rank >= 10, "rule leaves ten beyond, n=" +
                                  std::to_string(n));
        check(p == 99 || n - next < 10,
              "rule picks the highest such percentile, n=" +
                  std::to_string(n));
    }

    std::vector<double> v;
    for (int i = 1; i <= 96; ++i)
        v.push_back(97 - i);  // unsorted input
    check(perfbench::percentile(v, 89) == 86.0, "p89 of 1..96 is 86");
    check(perfbench::median(v) == 48.0, "median of 1..96 is 48");
    check(perfbench::percentile({}, 50) == 0.0, "empty input gives 0");
    check(perfbench::median({7.0}) == 7.0, "median of one value");
}

void
testDigest()
{
    using perfbench::Digest;
    // FNV-1a of the empty stream is the offset basis.
    check(Digest().value() == 0xcbf29ce484222325ULL, "offset basis");
    check(Digest().hex() == "cbf29ce484222325", "hex rendering");

    auto of = [](auto &&fill) {
        Digest d;
        fill(d);
        return d.value();
    };
    const auto ab_c = of([](Digest &d) {
        d.addString("ab");
        d.addString("c");
    });
    const auto a_bc = of([](Digest &d) {
        d.addString("a");
        d.addString("bc");
    });
    check(ab_c != a_bc, "strings are length-framed");
    const auto x_y = of([](Digest &d) {
        d.addU64(1);
        d.addU64(2);
    });
    const auto y_x = of([](Digest &d) {
        d.addU64(2);
        d.addU64(1);
    });
    check(x_y != y_x, "digest is order-sensitive");
    check(of([](Digest &d) { d.addDouble(0.1); }) !=
              of([](Digest &d) { d.addDouble(std::nextafter(0.1, 1.0)); }),
          "one ulp of a double changes the digest");
    check(of([](Digest &d) { d.addBits({1, 0, 1}); }) !=
              of([](Digest &d) { d.addBits({1, 0, 1, 0}); }),
          "bit strings are length-framed");
    check(of([](Digest &d) { d.addBits({1, 0, 1}); }) ==
              of([](Digest &d) { d.addBits({1, 0, 1}); }),
          "digest is deterministic");
}

void
testGoodput()
{
    using perfbench::correctBits;
    using perfbench::goodputKbps;
    check(correctBits({1, 0, 1, 1}, {1, 0, 1, 1}) == 4, "all correct");
    check(correctBits({1, 0, 1, 1}, {1, 1, 1, 0}) == 2,
          "bit errors are not delivered");
    check(correctBits({1, 0, 1, 1}, {1, 0}) == 2,
          "missing bits are not delivered");
    check(correctBits({1, 0}, {1, 0, 1, 1}) == 2,
          "extra received bits earn nothing");
    check(correctBits({}, {1}) == 0, "empty payload");
    // 2000 correct bits in 2.67e6 cycles at 2.67 GHz = 1 ms -> 2000
    // Kbit/s.
    check(std::abs(goodputKbps(2000, 2'670'000, 2.67) - 2000.0) < 1e-9,
          "goodput = correct bits / simulated seconds");
    check(goodputKbps(2000, 0, 2.67) == 0.0, "no time, no goodput");
    check(goodputKbps(1000, 2'670'000, 2.67) <
              goodputKbps(2000, 2'670'000, 2.67),
          "errors lower goodput at equal time");
}

} // namespace

int
main()
{
    testTailPercentile();
    testDigest();
    testGoodput();
    if (failures == 0)
        std::cout << "perfbench helper tests passed\n";
    return failures == 0 ? 0 : 1;
}
