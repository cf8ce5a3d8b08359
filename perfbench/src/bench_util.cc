#include "bench_util.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench
{

double
percentile(std::vector<double> values, int p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    // Nearest rank: the smallest value with at least p% of the
    // samples at or below it.
    std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    rank = std::clamp<std::size_t>(rank, 1, n);
    return values[rank - 1];
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50);
}

int
tailPercentile(std::size_t n)
{
    if (n <= 10)
        return 50;
    // Largest p with n - ceil(p * n / 100) >= 10.
    const auto p = static_cast<int>(100 * (n - 10) / n);
    return std::max(p, 50);
}

std::uint64_t
correctBits(const csim::BitString &sent, const csim::BitString &received)
{
    const std::size_t n = std::min(sent.size(), received.size());
    std::uint64_t ok = 0;
    for (std::size_t i = 0; i < n; ++i)
        ok += sent[i] == received[i] ? 1 : 0;
    return ok;
}

double
goodputKbps(std::uint64_t correct, std::uint64_t cycles, double clock_ghz)
{
    if (cycles == 0)
        return 0.0;
    const double seconds =
        static_cast<double>(cycles) / (clock_ghz * 1e9);
    return static_cast<double>(correct) / seconds / 1e3;
}

void
Digest::addBytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::addU64(std::uint64_t v)
{
    addBytes(&v, sizeof v);
}

void
Digest::addDouble(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    addU64(bits);
}

void
Digest::addString(const std::string &s)
{
    addU64(s.size());
    addBytes(s.data(), s.size());
}

void
Digest::addBits(const csim::BitString &bits)
{
    addU64(bits.size());
    addBytes(bits.data(), bits.size());
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

} // namespace perfbench
