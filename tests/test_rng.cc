/**
 * @file
 * Unit and property tests for the deterministic RNG and the Zipf
 * sampler (src/common/rng), plus pinned outputs of every SplitMix64
 * consumer (Rng seeding, runner::taskSeed, the service's tenant
 * routing and streams).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "runner/pool.hh"
#include "service/service.hh"

namespace ramp
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

/**
 * Every SplitMix64 consumer pinned to recorded outputs: task seeds,
 * Rng streams, tenant routing and tenant traces must stay bit-exact,
 * or every downstream result moves.
 */
TEST(SplitMix64, ConsumersArePinned)
{
    // The published SplitMix64 reference: first output from state 0.
    std::uint64_t state = 0;
    EXPECT_EQ(splitMix64(state), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(state, splitMix64Gamma);

    EXPECT_EQ(runner::taskSeed(0, 0), 0xe220a8397b1dcdafULL);
    const std::uint64_t seeds[] = {
        13679457532755275413ULL, 2949826092126892291ULL,
        5139283748462763858ULL, 6349198060258255764ULL};
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(runner::taskSeed(42, i), seeds[i]) << i;

    Rng rng(1);
    const std::uint64_t draws[] = {
        12966619160104079557ULL, 9600361134598540522ULL,
        10590380919521690900ULL, 7218738570589545383ULL};
    for (const std::uint64_t draw : draws)
        EXPECT_EQ(rng.next(), draw);

    const service::ServiceConfig config;
    const unsigned shards4[] = {0, 1, 2, 3, 1, 0, 1, 1};
    const unsigned shards7[] = {2, 2, 2, 4, 3, 6, 2, 3};
    for (std::uint32_t t = 0; t < 8; ++t) {
        EXPECT_EQ(service::shardOf(t, 4, config.routingSalt),
                  shards4[t])
            << t;
        EXPECT_EQ(service::shardOf(t, 7, 1), shards7[t]) << t;
    }

    service::TenantSpec spec;
    spec.id = 3;
    spec.requests = 4;
    spec.footprintPages = 1000;
    const auto traces = service::buildTenantTrace(spec);
    const std::uint64_t addrs[] = {206158467840ULL, 206158432576ULL,
                                   206158431872ULL, 206158440512ULL};
    const std::uint32_t gaps[] = {1, 5, 3, 4};
    const bool writes[] = {false, true, true, true};
    ASSERT_EQ(traces.size(), 4u);
    for (std::size_t core = 0; core < 4; ++core) {
        ASSERT_EQ(traces[core].size(), 1u) << core;
        EXPECT_EQ(traces[core][0].addr, addrs[core]) << core;
        EXPECT_EQ(traces[core][0].gap, gaps[core]) << core;
        EXPECT_EQ(traces[core][0].isWrite, writes[core]) << core;
    }
}

TEST(Rng, NextRangeStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextRange(bound), bound);
    }
}

TEST(Rng, NextRangeOfOneIsZero)
{
    Rng rng(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextRange(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextDoubleMeanNearHalf)
{
    Rng rng(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(17);
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, PoissonMeanSmallLambda)
{
    Rng rng(23);
    const double lambda = 3.5;
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextPoisson(lambda));
    EXPECT_NEAR(sum / n, lambda, 0.1);
}

TEST(Rng, PoissonMeanLargeLambda)
{
    Rng rng(29);
    const double lambda = 120.0;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextPoisson(lambda));
    EXPECT_NEAR(sum / n, lambda, 1.0);
}

TEST(Rng, PoissonZeroMeanIsZero)
{
    Rng rng(31);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextPoisson(0.0), 0u);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(37);
    const double rate = 0.25;
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.1);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(41);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.nextGaussian();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(43);
    Rng child = parent.split();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (parent.next() == child.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(ZipfSampler, UniformWhenAlphaZero)
{
    ZipfSampler zipf(10, 0.0);
    Rng rng(47);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (const int count : counts)
        EXPECT_NEAR(static_cast<double>(count) / n, 0.1, 0.01);
}

TEST(ZipfSampler, ProbabilitiesSumToOne)
{
    ZipfSampler zipf(100, 0.8);
    double sum = 0;
    for (std::uint64_t r = 0; r < 100; ++r)
        sum += zipf.probability(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, ProbabilityOutOfRangeIsZero)
{
    ZipfSampler zipf(10, 1.0);
    EXPECT_EQ(zipf.probability(10), 0.0);
    EXPECT_EQ(zipf.probability(1000), 0.0);
}

TEST(ZipfSampler, SingleItem)
{
    ZipfSampler zipf(1, 2.0);
    Rng rng(53);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

/** Property sweep: rank-0 mass matches theory across alphas. */
class ZipfAlphaTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfAlphaTest, HeadProbabilityMatchesTheory)
{
    const double alpha = GetParam();
    const std::uint64_t n = 50;
    ZipfSampler zipf(n, alpha);

    double denom = 0;
    for (std::uint64_t r = 1; r <= n; ++r)
        denom += 1.0 / std::pow(static_cast<double>(r), alpha);
    EXPECT_NEAR(zipf.probability(0), 1.0 / denom, 1e-9);

    Rng rng(59);
    const int samples = 200000;
    int head = 0;
    for (int i = 0; i < samples; ++i)
        head += zipf.sample(rng) == 0 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(head) / samples,
                zipf.probability(0), 0.01);
}

TEST_P(ZipfAlphaTest, RanksMonotonicallyLessLikely)
{
    ZipfSampler zipf(20, GetParam());
    for (std::uint64_t r = 1; r < 20; ++r)
        EXPECT_GE(zipf.probability(r - 1) + 1e-12,
                  zipf.probability(r));
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.0, 0.3, 0.8, 1.0, 1.5));

/**
 * The guide-table search returns exactly the rank a binary search
 * over the whole CDF finds, for every u: at and around each slice
 * boundary j / G, at u = 0, at the largest double below 1, and on
 * random draws. The reference CDF repeats the sampler's arithmetic.
 */
class ZipfGuideTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{
};

TEST_P(ZipfGuideTest, MatchesFullLowerBound)
{
    const auto [n, alpha] = GetParam();
    const ZipfSampler zipf(n, alpha);
    std::vector<double> cdf(n);
    double sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[i] = sum;
    }
    for (auto &value : cdf)
        value /= sum;
    cdf.back() = 1.0;
    const auto reference = [&](double u) {
        return static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    };

    std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
    const std::uint64_t slices =
        std::bit_ceil(std::min<std::uint64_t>(n, 1 << 16));
    for (std::uint64_t j = 0; j < slices; ++j) {
        const double boundary =
            static_cast<double>(j) / static_cast<double>(slices);
        probes.push_back(boundary);
        probes.push_back(std::nextafter(boundary, 1.0));
        if (j > 0)
            probes.push_back(std::nextafter(boundary, 0.0));
    }
    // The CDF values themselves and their neighbours.
    for (std::uint64_t i = 0; i + 1 < n && i < 4096; ++i) {
        probes.push_back(cdf[i]);
        probes.push_back(std::nextafter(cdf[i], 0.0));
        probes.push_back(std::nextafter(cdf[i], 1.0));
    }
    Rng rng(n * 31 + 7);
    for (int i = 0; i < 20000; ++i)
        probes.push_back(rng.nextDouble());

    for (const double u : probes) {
        if (u < 0.0 || u >= 1.0)
            continue;
        ASSERT_EQ(zipf.rankOf(u), reference(u)) << "u = " << u;
    }
    Rng a(n), b(n);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(zipf.sample(a), reference(b.nextDouble()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfGuideTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(
                           1, 2, 3, 7, 1000, 65536, 100003),
                       ::testing::Values(0.0, 0.5, 0.99, 1.5, 4.0)));

} // namespace
} // namespace ramp
