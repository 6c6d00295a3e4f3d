/**
 * @file
 * Unit tests for the telemetry subsystem (src/telemetry): sharded
 * counter exactness under threads, fixed-bucket histogram
 * semantics, snapshot determinism under the pool, and the JSON
 * number renderer. Trace events are tested with the profiler's
 * scopes in test_prof.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "runner/pool.hh"
#include "telemetry/telemetry.hh"

namespace ramp::telemetry
{
namespace
{

/** Fresh telemetry state (enabled) for each test body. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        metrics().resetValues();
        setEnabled(true);
    }

    void TearDown() override
    {
        setEnabled(false);
        metrics().resetValues();
    }
};

TEST_F(TelemetryTest, ConcurrentCounterIncrementsSumExactly)
{
    Counter &counter = metrics().counter("test.concurrent");
    constexpr int threads = 8;
    constexpr std::uint64_t perThread = 10000;

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < perThread; ++i)
                counter.add(1);
        });
    for (auto &worker : workers)
        worker.join();

    EXPECT_EQ(counter.total(), threads * perThread);
}

TEST_F(TelemetryTest, CounterAddHonoursWeight)
{
    Counter &counter = metrics().counter("test.weighted");
    counter.add(3);
    counter.add(4);
    EXPECT_EQ(counter.total(), 7u);
    counter.reset();
    EXPECT_EQ(counter.total(), 0u);
}

TEST(FixedHistogram, BucketBoundaries)
{
    auto hist = FixedHistogram::linear(0.0, 10.0, 5);
    ASSERT_EQ(hist.numBuckets(), 5u);
    // Buckets are [lo, hi): a value on an interior edge lands in
    // the bucket it opens.
    EXPECT_EQ(hist.bucketOf(0.0), 0u);
    EXPECT_EQ(hist.bucketOf(1.99), 0u);
    EXPECT_EQ(hist.bucketOf(2.0), 1u);
    EXPECT_EQ(hist.bucketOf(9.99), 4u);
    EXPECT_DOUBLE_EQ(hist.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(hist.bucketHigh(0), 2.0);
    EXPECT_DOUBLE_EQ(hist.bucketLow(4), 8.0);
    EXPECT_DOUBLE_EQ(hist.bucketHigh(4), 10.0);
}

TEST(FixedHistogram, ClampsOutOfRange)
{
    auto hist = FixedHistogram::linear(0.0, 10.0, 5);
    hist.add(-100.0);
    hist.add(100.0);
    hist.add(10.0); // the exclusive upper edge clamps down too
    EXPECT_EQ(hist.bucketCount(0), 1u);
    EXPECT_EQ(hist.bucketCount(4), 2u);
    EXPECT_EQ(hist.total(), 3u);
}

TEST(FixedHistogram, ExplicitEdgesAndCounts)
{
    FixedHistogram hist({0.0, 1.0, 10.0, 100.0});
    hist.add(0.5);
    hist.add(5.0, 3);
    hist.add(50.0);
    EXPECT_EQ(hist.bucketCount(0), 1u);
    EXPECT_EQ(hist.bucketCount(1), 3u);
    EXPECT_EQ(hist.bucketCount(2), 1u);
    EXPECT_EQ(hist.total(), 5u);
}

TEST(FixedHistogram, PercentilesInterpolateWithinBuckets)
{
    auto hist = FixedHistogram::linear(0.0, 100.0, 10);
    // A uniform series: quantiles track the identity line.
    for (int i = 0; i < 100; ++i)
        hist.add(i + 0.5);
    EXPECT_NEAR(hist.percentile(0.0), 0.0, 1.0);
    EXPECT_NEAR(hist.p50(), 50.0, 1.0);
    EXPECT_NEAR(hist.p95(), 95.0, 1.0);
    EXPECT_NEAR(hist.p99(), 99.0, 1.0);
    EXPECT_NEAR(hist.percentile(1.0), 100.0, 1.0);
    // Out-of-range quantiles clamp instead of extrapolating.
    EXPECT_DOUBLE_EQ(hist.percentile(-1.0), hist.percentile(0.0));
    EXPECT_DOUBLE_EQ(hist.percentile(2.0), hist.percentile(1.0));
}

TEST(FixedHistogram, PercentileOfSkewedMassLandsInItsBucket)
{
    auto hist = FixedHistogram::linear(0.0, 10.0, 10);
    hist.add(0.5, 99);
    hist.add(9.5, 1);
    // 99% of the mass sits in [0, 1): the median must too, and only
    // the extreme tail reaches the last bucket.
    EXPECT_LT(hist.p50(), 1.0);
    EXPECT_LT(hist.p95(), 1.0);
    EXPECT_GE(hist.percentile(0.995), 9.0);
}

TEST(FixedHistogram, PercentileOfEmptyHistogramIsNaN)
{
    const auto hist = FixedHistogram::linear(0.0, 1.0, 4);
    EXPECT_TRUE(std::isnan(hist.p50()));
    EXPECT_TRUE(std::isnan(hist.percentile(1.0)));
}

TEST(FixedHistogram, MergeAddsCountsOfSameLayout)
{
    auto a = FixedHistogram::linear(0.0, 1.0, 4);
    auto b = FixedHistogram::linear(0.0, 1.0, 4);
    a.add(0.1);
    b.add(0.1);
    b.add(0.9, 2);
    a.merge(b);
    EXPECT_EQ(a.bucketCount(0), 2u);
    EXPECT_EQ(a.bucketCount(3), 2u);
    EXPECT_EQ(a.total(), 4u);
}

TEST(FixedHistogramDeath, MergeRejectsLayoutMismatch)
{
    auto a = FixedHistogram::linear(0.0, 1.0, 4);
    auto b = FixedHistogram::linear(0.0, 2.0, 4);
    EXPECT_FALSE(a.sameLayout(b));
    EXPECT_DEATH(a.merge(b), "layout");
}

TEST_F(TelemetryTest, HistogramMetricObservesAcrossThreads)
{
    auto &metric = metrics().histogram(
        "test.hist", FixedHistogram::linear(0.0, 4.0, 4));
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&metric, t] {
            for (int i = 0; i < 100; ++i)
                metric.observe(static_cast<double>(t) + 0.5);
        });
    for (auto &worker : workers)
        worker.join();

    const auto snap = metric.snapshot();
    for (std::size_t bucket = 0; bucket < 4; ++bucket)
        EXPECT_EQ(snap.bucketCount(bucket), 100u);
    EXPECT_EQ(snap.total(), 400u);
}

TEST_F(TelemetryTest, SnapshotIsDeterministicUnderThePool)
{
    // The same work fanned out over differently-sized pools must
    // merge to identical totals: every mutation is an unconditional
    // sharded add, so scheduling cannot change the sums.
    auto run = [](unsigned jobs) {
        metrics().resetValues();
        Counter &items = metrics().counter("test.pool.items");
        auto &weights = metrics().histogram(
            "test.pool.weights",
            FixedHistogram::linear(0.0, 64.0, 8));
        runner::ThreadPool pool(jobs);
        pool.runIndexed(64, [&](std::size_t i) {
            items.add(i);
            weights.observe(static_cast<double>(i));
        });
        const auto snap = metrics().snapshot();
        std::pair<std::uint64_t, std::vector<std::uint64_t>> out;
        out.first = snap.counterOr("test.pool.items");
        out.second =
            snap.histograms.at("test.pool.weights").counts();
        return out;
    };

    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_EQ(serial.first, 64u * 63u / 2u);
    EXPECT_EQ(serial, parallel);
}

TEST_F(TelemetryTest, DisabledSitesRecordNothing)
{
    setEnabled(false);
    Counter &counter = metrics().counter("test.disabled");
    RAMP_TELEM(counter.add(1));
    EXPECT_EQ(counter.total(), 0u);
}

TEST_F(TelemetryTest, SnapshotJsonHasAllSections)
{
    metrics().counter("test.json.counter").add(2);
    metrics().gauge("test.json.gauge").set(1.5);
    metrics()
        .histogram("test.json.hist",
                   FixedHistogram::linear(0.0, 1.0, 2))
        .observe(0.25);
    const std::string json = metrics().snapshot().toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.counter\": 2"),
              std::string::npos);
}

TEST_F(TelemetryTest, SnapshotQuantileAccessorMatchesHistogram)
{
    auto &metric = metrics().histogram(
        "test.quantiles", FixedHistogram::linear(0.0, 10.0, 10));
    for (int i = 0; i < 100; ++i)
        metric.observe((i % 10) + 0.5);
    const auto snap = metrics().snapshot();
    EXPECT_NEAR(snap.histogramPercentile("test.quantiles", 0.5),
                5.0, 0.5);
    // Unknown names and empty histograms answer NaN, not zero.
    EXPECT_TRUE(
        std::isnan(snap.histogramPercentile("no.such.hist", 0.5)));
}

TEST(JsonNumber, NonFiniteValuesRenderAsNull)
{
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}

TEST(TelemetryRegistryDeath, HistogramRelayoutPanics)
{
    metrics().histogram("test.relayout",
                        FixedHistogram::linear(0.0, 1.0, 2));
    EXPECT_DEATH(metrics().histogram(
                     "test.relayout",
                     FixedHistogram::linear(0.0, 2.0, 2)),
                 "layout");
}

} // namespace
} // namespace ramp::telemetry
