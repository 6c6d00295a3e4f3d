/**
 * @file
 * Tests for the performance-observability layer (src/perf): the
 * steady-state microbenchmark framework and the JSON reader — plus
 * the Harness integration that flushes the requested artifacts even
 * when the campaign is cancelled.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hma/experiment.hh"
#include "perf/json.hh"
#include "perf/microbench.hh"
#include "runner/harness.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{
namespace
{

using perf::BenchOptions;
using perf::JsonValue;
using perf::Microbench;
using runner::Harness;
using runner::PassDesc;
using runner::PassError;
using runner::PassErrorCode;
using runner::RunnerOptions;

/** --metrics-out switches telemetry on; leave no global residue. */
class PerfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        telemetry::metrics().resetValues();
        telemetry::setEnabled(true);
    }

    void TearDown() override
    {
        telemetry::setEnabled(false);
        telemetry::metrics().resetValues();
    }
};

TEST(Microbench, MeasuresStatsAndThroughput)
{
    Microbench suite;
    suite.add("spin", "items", [] {
        volatile std::uint64_t x = 0;
        for (int i = 0; i < 20000; ++i)
            x = x + static_cast<std::uint64_t>(i);
        return std::uint64_t{1000};
    });

    BenchOptions options;
    options.iterations = 6;
    options.maxWarmupIterations = 8;
    const auto results = suite.run(options);
    ASSERT_EQ(results.size(), 1u);
    const auto &r = results[0];
    EXPECT_EQ(r.name, "spin");
    EXPECT_EQ(r.unit, "items");
    EXPECT_EQ(r.itemsPerIteration, 1000u);
    EXPECT_EQ(r.iterations, 6u);
    EXPECT_LE(r.warmupIterations, 8u);
    EXPECT_GT(r.meanSeconds, 0.0);
    EXPECT_LE(r.minSeconds, r.meanSeconds);
    EXPECT_GE(r.maxSeconds, r.meanSeconds);
    EXPECT_GE(r.stddevSeconds, 0.0);
    EXPECT_GE(r.ci95Seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.itemsPerSecond, 1000.0 / r.minSeconds);
}

TEST(Microbench, SubsetSelectionAndOrder)
{
    Microbench suite;
    for (const char *name : {"alpha", "beta", "gamma"})
        suite.add(name, "items", [] { return std::uint64_t{1}; });
    EXPECT_EQ(suite.names(),
              (std::vector<std::string>{"alpha", "beta", "gamma"}));

    BenchOptions options;
    options.iterations = 1;
    options.maxWarmupIterations = 1;
    const auto results = suite.run(options, {"gamma", "alpha"});
    ASSERT_EQ(results.size(), 2u);
    // Registration order wins, not selection order.
    EXPECT_EQ(results[0].name, "alpha");
    EXPECT_EQ(results[1].name, "gamma");
}

TEST(Microbench, BudgetCapsIterations)
{
    Microbench suite;
    suite.add("slow", "items", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return std::uint64_t{1};
    });
    BenchOptions options;
    options.iterations = 1000;
    options.maxWarmupIterations = 2;
    options.maxSecondsPerCase = 0.05;
    const auto results = suite.run(options);
    ASSERT_EQ(results.size(), 1u);
    // The budget stopped it long before 1000, but the floor of 3
    // measured iterations still holds.
    EXPECT_LT(results[0].iterations, 1000u);
    EXPECT_GE(results[0].iterations, 3u);
}

TEST(MicrobenchDeath, RejectsDuplicateNames)
{
    Microbench suite;
    suite.add("dup", "items", [] { return std::uint64_t{1}; });
    EXPECT_DEATH(
        suite.add("dup", "items", [] { return std::uint64_t{1}; }),
        "dup");
}

TEST(Json, ParsesScalarsContainersAndEscapes)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(perf::parseJson(
        R"({"a": 1.5, "b": [true, null, -2e3], "c": "x\n\"yA"})",
        doc, error))
        << error;
    EXPECT_DOUBLE_EQ(doc.numberOr("a", 0), 1.5);
    const JsonValue *b = doc.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_DOUBLE_EQ(b->array[2].number, -2000.0);
    EXPECT_EQ(doc.stringOr("c", ""), "x\n\"yA");
}

TEST(Json, DecodesUnicodeEscapesAsUtf8)
{
    JsonValue doc;
    std::string error;
    // ASCII, 2-byte, 3-byte, and a surrogate pair (4-byte):
    // A, e-acute, euro sign, and an emoji outside the BMP.
    ASSERT_TRUE(perf::parseJson(
        "{\"s\": \"\\u0041\\u00e9\\u20ac\\ud83d\\ude00\"}", doc,
        error))
        << error;
    EXPECT_EQ(doc.stringOr("s", ""),
              "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
    // Upper-case hex digits decode identically.
    ASSERT_TRUE(
        perf::parseJson("[\"\\u20AC\"]", doc, error))
        << error;
    EXPECT_EQ(doc.array.at(0).string, "\xe2\x82\xac");
}

TEST(Json, RejectsBrokenUnicodeEscapes)
{
    JsonValue doc;
    std::string error;
    // Non-hex digit.
    EXPECT_FALSE(perf::parseJson(R"(["\u12zf"])", doc, error));
    // Truncated escape at end of input.
    EXPECT_FALSE(perf::parseJson(R"(["\u12)", doc, error));
    // High surrogate with no low surrogate after it.
    EXPECT_FALSE(perf::parseJson(R"(["\ud83dx"])", doc, error));
    // High surrogate followed by a non-surrogate escape.
    EXPECT_FALSE(perf::parseJson(R"(["\ud83dA"])", doc, error));
    // Low surrogate on its own.
    EXPECT_FALSE(perf::parseJson(R"(["\ude00"])", doc, error));
    EXPECT_FALSE(error.empty());
}

TEST(Json, RejectsMalformedAndTrailingGarbage)
{
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(perf::parseJson("{\"a\": }", doc, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(perf::parseJson("[1, 2] tail", doc, error));
    EXPECT_FALSE(perf::parseJson("", doc, error));
    EXPECT_FALSE(perf::parseJson("{\"a\": 1", doc, error));
}

GeneratorOptions
smallTraces()
{
    GeneratorOptions options;
    options.traceScale = 0.02;
    return options;
}

TEST_F(PerfTest, CancelledCampaignStillFlushesOutputs)
{
    runner::clearCancellation();
    RunnerOptions options;
    options.jobs = 1;
    options.jsonPath = ::testing::TempDir() + "ramp_cancelled.json";
    options.metricsPath =
        ::testing::TempDir() + "ramp_cancelled_metrics.json";
    std::remove(options.jsonPath.c_str());
    std::remove(options.metricsPath.c_str());

    Harness harness("cancel_tool", options);
    const auto wl =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const SystemConfig &config = harness.config();
    std::vector<PassDesc> descs;
    for (const char *label : {"one", "two", "three"})
        descs.push_back({wl->name(), Harness::passKey(wl, label)});

    try {
        testing::internal::CaptureStderr();
        harness.runPasses(descs, [&](std::size_t i) {
            if (i == 0)
                runner::requestCancellation(); // a SIGINT stand-in
            return runStaticPolicy(config, wl->data,
                                   StaticPolicy::PerfFocused,
                                   wl->profile());
        });
        testing::internal::GetCapturedStderr();
        FAIL() << "expected PassError(Cancelled)";
    } catch (const PassError &error) {
        testing::internal::GetCapturedStderr();
        EXPECT_EQ(error.code(), PassErrorCode::Cancelled);
    }
    runner::clearCancellation();

    // The cancellation path ran finish(): both requested artifacts
    // were written (atomically) and parse, and each lists the
    // baseline plus the three cancelled passes.
    std::string error;
    JsonValue report;
    ASSERT_TRUE(perf::parseJsonFile(options.jsonPath, report, error))
        << error;
    EXPECT_EQ(report.stringOr("tool", ""), "cancel_tool");
    JsonValue metrics;
    ASSERT_TRUE(
        perf::parseJsonFile(options.metricsPath, metrics, error))
        << error;
    EXPECT_EQ(metrics.stringOr("tool", ""), "cancel_tool");
    for (const JsonValue *doc : {&report, &metrics}) {
        const JsonValue *passes = doc->find("passes");
        ASSERT_NE(passes, nullptr);
        ASSERT_EQ(passes->array.size(), 4u);
        for (std::size_t i = 1; i < passes->array.size(); ++i)
            EXPECT_EQ(passes->array[i].stringOr("status", ""),
                      "skipped");
    }
    std::remove(options.jsonPath.c_str());
    std::remove(options.metricsPath.c_str());
}

} // namespace
} // namespace ramp
