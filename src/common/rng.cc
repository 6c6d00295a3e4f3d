#include "common/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace ramp
{

namespace
{

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextRange(std::uint64_t bound)
{
    if (bound == 0)
        ramp_panic("nextRange bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::uint64_t
Rng::nextPoisson(double mean)
{
    if (mean < 0)
        ramp_panic("Poisson mean must be non-negative");
    if (mean == 0)
        return 0;
    if (mean < 30) {
        // Knuth's multiplication method.
        const double limit = std::exp(-mean);
        double product = nextDouble();
        std::uint64_t count = 0;
        while (product > limit) {
            product *= nextDouble();
            ++count;
        }
        return count;
    }
    // Normal approximation with continuity correction.
    const double draw = mean + std::sqrt(mean) * nextGaussian() + 0.5;
    return draw <= 0 ? 0 : static_cast<std::uint64_t>(draw);
}

double
Rng::nextExponential(double rate)
{
    if (rate <= 0)
        ramp_panic("Exponential rate must be positive");
    double u;
    do {
        u = nextDouble();
    } while (u == 0.0);
    return -std::log(u) / rate;
}

double
Rng::nextGaussian()
{
    double u1;
    do {
        u1 = nextDouble();
    } while (u1 == 0.0);
    const double u2 = nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * M_PI * u2);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa0761d6478bd642fULL);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha)
    : n_(n), alpha_(alpha)
{
    if (n == 0)
        ramp_fatal("ZipfSampler needs at least one item");
    if (alpha < 0)
        ramp_fatal("ZipfSampler skew must be non-negative");
    if (n > UINT32_MAX)
        ramp_fatal("ZipfSampler supports at most 2^32 - 1 items");
    cdf_.resize(n);
    double sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf_[i] = sum;
    }
    for (auto &value : cdf_)
        value /= sum;
    cdf_.back() = 1.0;

    // About one slice per rank, a power of two, at most 2^16.
    const std::size_t slices = std::bit_ceil(
        std::min<std::uint64_t>(n, std::uint64_t{1} << 16));
    guide_.resize(slices + 1);
    std::uint64_t rank = 0;
    for (std::size_t j = 0; j <= slices; ++j) {
        const double bound =
            static_cast<double>(j) / static_cast<double>(slices);
        while (cdf_[rank] < bound)
            ++rank; // ends at n - 1: cdf_.back() is 1.0
        guide_[j] = static_cast<std::uint32_t>(rank);
    }
}

std::uint64_t
ZipfSampler::rankOf(double u) const
{
    // u lies in slice j = floor(u * G), so the first rank with
    // cdf_ >= u lies in [guide_[j], guide_[j + 1]].
    const auto slice = static_cast<std::size_t>(
        u * static_cast<double>(guide_.size() - 1));
    const auto first = cdf_.begin() + guide_[slice];
    const auto last = cdf_.begin() + guide_[slice + 1];
    return static_cast<std::uint64_t>(
        std::lower_bound(first, last, u) - cdf_.begin());
}

double
ZipfSampler::probability(std::uint64_t rank) const
{
    if (rank >= n_)
        return 0.0;
    const double prev = rank == 0 ? 0.0 : cdf_[rank - 1];
    return cdf_[rank] - prev;
}

} // namespace ramp
