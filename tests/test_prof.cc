/**
 * @file
 * Tests for the cycle-level hot-path profiler (src/prof).
 *
 * Locks the subsystem's contracts: nested scopes account self and
 * total cycles exactly under a deterministic cycle source, the
 * cross-thread merge conserves call counts, a disabled run
 * allocates no per-thread state, PMU-unavailable hosts degrade to
 * TSC-only profiles, the exporters (ramp-profile-v1 JSON, folded
 * stacks) stay self-consistent, the profile diff flags real
 * regressions and nothing else, and the analyzer's calls view is
 * byte-identical at --jobs 1 and --jobs 4. The same scopes feed the
 * Chrome trace: its JSON is well-formed, B/E pairs nest per thread,
 * and with both recorders on each phase's B count equals its calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "perf/json.hh"
#include "perf/prof_report.hh"
#include "prof/pmu.hh"
#include "prof/prof.hh"
#include "prof/tsc.hh"
#include "reliability/faultsim.hh"
#include "runner/pool.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{
namespace
{

/** Deterministic cycle source: every read advances 100 cycles. */
std::atomic<std::uint64_t> fakeClock{0};

std::uint64_t
fakeCycles()
{
    return fakeClock.fetch_add(100, std::memory_order_relaxed);
}

/** Fresh, enabled profiler per test; everything off afterwards. */
class ProfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        prof::reset();
        prof::setEnabled(true);
    }

    void TearDown() override
    {
        prof::setEnabled(false);
        prof::setTracing(false);
        prof::detail::setCycleSourceForTest(nullptr);
        prof::pmuForceUnavailableForTest(false);
        prof::reset();
    }

    /** The snapshot phase with the given path, or nullptr. */
    static const prof::PhaseStat *
    findPhase(const prof::ProfileSnapshot &snap,
              const std::string &path)
    {
        for (const prof::PhaseStat &phase : snap.phases)
            if (phase.path == path)
                return &phase;
        return nullptr;
    }
};

TEST_F(ProfTest, NestedScopesAccountSelfAndTotalExactly)
{
    fakeClock.store(0);
    prof::detail::setCycleSourceForTest(&fakeCycles);

    {
        RAMP_PROF_SCOPE(outer, "outer"); // start read: 0
        {
            RAMP_PROF_SCOPE(inner, "inner"); // start read: 100
        } // stop read: 200 -> inner total 100
    } // stop read: 300 -> outer total 300

    const auto snap = prof::snapshot();
    const auto *outer = findPhase(snap, "outer");
    const auto *inner = findPhase(snap, "outer;inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->calls, 1u);
    EXPECT_EQ(inner->calls, 1u);
    EXPECT_EQ(outer->totalCycles, 300u);
    EXPECT_EQ(inner->totalCycles, 100u);
    EXPECT_EQ(inner->selfCycles, 100u);
    // Self excludes exactly the child's total.
    EXPECT_EQ(outer->selfCycles, 200u);
}

TEST_F(ProfTest, RepeatedAndSiblingScopesAccumulate)
{
    fakeClock.store(0);
    prof::detail::setCycleSourceForTest(&fakeCycles);

    for (int i = 0; i < 3; ++i) {
        RAMP_PROF_SCOPE(work, "work");
        {
            RAMP_PROF_SCOPE(a, "a");
        }
        {
            RAMP_PROF_SCOPE(b, "b");
        }
    }

    const auto snap = prof::snapshot();
    const auto *work = findPhase(snap, "work");
    const auto *a = findPhase(snap, "work;a");
    const auto *b = findPhase(snap, "work;b");
    ASSERT_NE(work, nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(work->calls, 3u);
    EXPECT_EQ(a->calls, 3u);
    EXPECT_EQ(b->calls, 3u);
    // Per iteration: work spans 5 intervals of 100, a and b one
    // each; self = total - children exactly.
    EXPECT_EQ(work->totalCycles, 3u * 500u);
    EXPECT_EQ(a->totalCycles, 3u * 100u);
    EXPECT_EQ(b->totalCycles, 3u * 100u);
    EXPECT_EQ(work->selfCycles,
              work->totalCycles - a->totalCycles -
                  b->totalCycles);
}

TEST_F(ProfTest, ThreadMergeConservesCallCounts)
{
    constexpr unsigned threads = 4;
    constexpr unsigned iterations = 25;

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([] {
            for (unsigned i = 0; i < iterations; ++i) {
                RAMP_PROF_SCOPE(outer, "merge.outer");
                RAMP_PROF_SCOPE(inner, "merge.inner");
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    const auto snap = prof::snapshot();
    const auto *outer = findPhase(snap, "merge.outer");
    const auto *inner =
        findPhase(snap, "merge.outer;merge.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // The merge is exact: no call is lost or double-counted at
    // any interleaving.
    EXPECT_EQ(outer->calls, threads * iterations);
    EXPECT_EQ(inner->calls, threads * iterations);
    EXPECT_GE(outer->totalCycles, inner->totalCycles);
    EXPECT_EQ(outer->selfCycles,
              outer->totalCycles - inner->totalCycles);
}

TEST_F(ProfTest, DisabledScopesAllocateNoThreadState)
{
    prof::setEnabled(false);
    ASSERT_EQ(enable::which(~0u), 0u) << "every recorder bit off";
    const std::size_t states_before =
        prof::threadStateCountForTest();

    // A fresh thread running only disabled scopes must never
    // register per-thread state (the disabled path is one relaxed
    // load and a branch, no allocation).
    std::thread worker([] {
        for (int i = 0; i < 1000; ++i) {
            RAMP_PROF_SCOPE(scope, "disabled.phase");
            RAMP_PROF_SCOPE_PMU(pmu_scope, "disabled.pmu", "key",
                                "value");
            prof::instant("disabled.instant");
        }
    });
    worker.join();

    EXPECT_EQ(prof::threadStateCountForTest(), states_before);
    EXPECT_EQ(findPhase(prof::snapshot(), "disabled.phase"),
              nullptr);
}

TEST_F(ProfTest, PmuUnavailableDegradesToTscOnly)
{
    prof::pmuForceUnavailableForTest(true);
    fakeClock.store(0);
    prof::detail::setCycleSourceForTest(&fakeCycles);

    {
        RAMP_PROF_SCOPE_PMU(scope, "pmu.phase");
    }

    const auto snap = prof::snapshot();
    EXPECT_FALSE(snap.pmuAvailable);
    const auto *phase = findPhase(snap, "pmu.phase");
    ASSERT_NE(phase, nullptr);
    // Cycles still recorded; PMU aggregates empty, not garbage.
    EXPECT_EQ(phase->calls, 1u);
    EXPECT_EQ(phase->totalCycles, 100u);
    EXPECT_EQ(phase->pmuCalls, 0u);
    EXPECT_EQ(phase->pmuInstructions, 0u);

    // The rendered document says so too.
    perf::JsonValue json;
    std::string error;
    ASSERT_TRUE(
        perf::parseJson(prof::profileJson("test", 1), json, error))
        << error;
    const perf::JsonValue *pmu = json.find("pmu");
    ASSERT_NE(pmu, nullptr);
    EXPECT_FALSE(pmu->boolOr("available", true));
}

TEST_F(ProfTest, ExportersStaySelfConsistent)
{
    fakeClock.store(0);
    prof::detail::setCycleSourceForTest(&fakeCycles);
    {
        RAMP_PROF_SCOPE(outer, "export.outer");
        RAMP_PROF_SCOPE(inner, "export.inner");
    }

    // The JSON document parses back to the same snapshot.
    perf::ProfileDoc doc;
    std::string error;
    perf::JsonValue json;
    ASSERT_TRUE(
        perf::parseJson(prof::profileJson("test", 2), json, error))
        << error;
    ASSERT_TRUE(perf::parseProfileDoc(json, doc, error)) << error;
    EXPECT_EQ(doc.tool, "test");
    EXPECT_EQ(doc.jobs, 2u);
    EXPECT_GT(doc.tscHz, 0.0);
    ASSERT_EQ(doc.phases.size(), 2u);
    EXPECT_EQ(doc.phases[0].path, "export.outer");
    EXPECT_EQ(doc.phases[1].path, "export.outer;export.inner");

    // Folded stacks carry exactly the nonzero self cycles.
    std::uint64_t folded_sum = 0;
    std::istringstream folded(prof::foldedStacks());
    std::string path;
    std::uint64_t self = 0;
    while (folded >> path >> self)
        folded_sum += self;
    std::uint64_t snap_sum = 0;
    for (const auto &phase : prof::snapshot().phases)
        snap_sum += phase.selfCycles;
    EXPECT_EQ(folded_sum, snap_sum);
}

/** Build a minimal synthetic profile document. */
perf::ProfileDoc
syntheticProfile(std::uint64_t hot_self)
{
    const std::string text =
        "{\"schema\": \"ramp-profile-v1\", \"tool\": \"synthetic\","
        " \"jobs\": 1,"
        " \"host\": {\"cpu_model\": \"test\", \"tsc_hz\": 1e9},"
        " \"pmu\": {\"available\": false},"
        " \"phases\": ["
        "  {\"path\": \"hot\", \"name\": \"hot\", \"depth\": 0,"
        "   \"calls\": 10, \"total_cycles\": " +
        std::to_string(hot_self) +
        ", \"self_cycles\": " + std::to_string(hot_self) +
        "},"
        "  {\"path\": \"cold\", \"name\": \"cold\", \"depth\": 0,"
        "   \"calls\": 10, \"total_cycles\": 5000000,"
        "   \"self_cycles\": 5000000}"
        " ]}";
    perf::JsonValue json;
    perf::ProfileDoc doc;
    std::string error;
    EXPECT_TRUE(perf::parseJson(text, json, error)) << error;
    EXPECT_TRUE(perf::parseProfileDoc(json, doc, error)) << error;
    return doc;
}

TEST(ProfDiff, IdenticalProfilesShowZeroDelta)
{
    const auto base = syntheticProfile(100000000);
    const auto deltas = perf::diffProfiles(base, base, 25, 1000000);
    ASSERT_EQ(deltas.size(), 2u);
    for (const auto &delta : deltas) {
        EXPECT_EQ(delta.baseSelf, delta.candSelf);
        EXPECT_EQ(delta.deltaPct, 0.0);
        EXPECT_FALSE(delta.significant);
        EXPECT_FALSE(delta.regressed);
    }
}

TEST(ProfDiff, DoubledPhaseIsFlaggedSlower)
{
    const auto base = syntheticProfile(100000000);
    const auto cand = syntheticProfile(200000000);
    const auto deltas = perf::diffProfiles(base, cand, 25, 1000000);
    ASSERT_EQ(deltas.size(), 2u);
    // Path-sorted join: "cold" first, then "hot".
    EXPECT_EQ(deltas[0].path, "cold");
    EXPECT_FALSE(deltas[0].significant);
    EXPECT_EQ(deltas[1].path, "hot");
    EXPECT_TRUE(deltas[1].significant);
    EXPECT_TRUE(deltas[1].regressed);
    EXPECT_NEAR(deltas[1].deltaPct, 100.0, 1e-9);

    // Below the cycle floor nothing fires, whatever the percent.
    const auto small_base = syntheticProfile(100);
    const auto small_cand = syntheticProfile(200);
    for (const auto &delta :
         perf::diffProfiles(small_base, small_cand, 25, 1000000))
        EXPECT_FALSE(delta.significant);
}

TEST(ProfDiff, NewPhaseReportedAsNew)
{
    auto base = syntheticProfile(100000000);
    const auto cand = syntheticProfile(100000000);
    base.phases.pop_back(); // drop "cold" from the baseline
    const auto deltas = perf::diffProfiles(base, cand, 25, 1000000);
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_EQ(deltas[0].path, "cold");
    EXPECT_FALSE(deltas[0].inBase);
    EXPECT_TRUE(deltas[0].inCand);
    EXPECT_TRUE(deltas[0].significant);
    EXPECT_TRUE(deltas[0].regressed);
}

TEST_F(ProfTest, CallsViewIsInvariantAcrossJobs)
{
    const auto run_campaign = [](unsigned jobs) {
        prof::reset();
        runner::ThreadPool pool(jobs);
        pool.runIndexed(64, [](std::size_t index) {
            RAMP_PROF_SCOPE(task, "campaign.task");
            for (std::size_t i = 0; i <= index % 3; ++i) {
                RAMP_PROF_SCOPE(step, "campaign.step");
            }
        });
        perf::JsonValue json;
        perf::ProfileDoc doc;
        std::string error;
        EXPECT_TRUE(perf::parseJson(
            prof::profileJson("campaign", jobs), json, error))
            << error;
        EXPECT_TRUE(perf::parseProfileDoc(json, doc, error))
            << error;
        return perf::renderCalls(doc);
    };

    const std::string serial = run_campaign(1);
    const std::string parallel = run_campaign(4);
    EXPECT_FALSE(serial.empty());
    // Aggregated structure (phase paths + call counts) must be
    // byte-identical at any pool width; only raw cycles may move.
    EXPECT_EQ(serial, parallel);
}

TEST_F(ProfTest, NestedFanOutPathsAreInvariantAcrossJobs)
{
    // A fan-out under an open scope, each task fanning out again:
    // the calling thread runs some outer tasks inline (under
    // "campaign.outer") and every nested task inline (under its
    // shard). Pool tasks start at the root wherever they run.
    const auto run_campaign = [](unsigned jobs) {
        prof::reset();
        runner::ThreadPool pool(jobs);
        {
            RAMP_PROF_SCOPE(outer, "campaign.outer");
            pool.runIndexed(12, [&pool](std::size_t index) {
                RAMP_PROF_SCOPE(shard, "campaign.shard");
                pool.runIndexed(index % 3 + 1, [](std::size_t) {
                    RAMP_PROF_SCOPE(step, "campaign.step");
                });
            });
        }
        const prof::ProfileSnapshot snap = prof::snapshot();
        const auto calls = [&](const std::string &path) {
            const prof::PhaseStat *phase = findPhase(snap, path);
            return phase == nullptr ? std::uint64_t{0} : phase->calls;
        };
        EXPECT_EQ(calls("campaign.outer"), 1u) << jobs;
        EXPECT_EQ(calls("pool.task"), 36u) << jobs;
        EXPECT_EQ(calls("pool.task;campaign.shard"), 12u) << jobs;
        EXPECT_EQ(calls("pool.task;campaign.step"), 24u) << jobs;
        EXPECT_EQ(snap.phases.size(), 4u) << jobs;
        perf::JsonValue json;
        perf::ProfileDoc doc;
        std::string error;
        EXPECT_TRUE(perf::parseJson(
            prof::profileJson("campaign", jobs), json, error))
            << error;
        EXPECT_TRUE(perf::parseProfileDoc(json, doc, error))
            << error;
        return perf::renderCalls(doc);
    };

    EXPECT_EQ(run_campaign(1), run_campaign(3));
}

/** One parsed Chrome trace event. */
struct Event
{
    std::string name;
    std::string cat;
    std::string phase;
    double ts = 0;
    double tid = 0;
    std::string arg; ///< The single arg's value ("" for none).
};

/** Parse prof::traceJson(); fails the test on malformed JSON. */
std::vector<Event>
traceEvents()
{
    perf::JsonValue json;
    std::string error;
    EXPECT_TRUE(perf::parseJson(prof::traceJson(), json, error))
        << error;
    std::vector<Event> events;
    const perf::JsonValue *list = json.find("traceEvents");
    if (list == nullptr || !list->isArray()) {
        ADD_FAILURE() << "no traceEvents array";
        return events;
    }
    for (const perf::JsonValue &value : list->array) {
        Event event;
        event.name = value.stringOr("name", "");
        event.cat = value.stringOr("cat", "");
        event.phase = value.stringOr("ph", "");
        event.ts = value.numberOr("ts", -1);
        event.tid = value.numberOr("tid", -1);
        if (const perf::JsonValue *args = value.find("args"))
            if (!args->object.empty())
                event.arg = args->object.begin()->second.string;
        events.push_back(event);
    }
    return events;
}

/** Tracing (and nothing else) on for each test body. */
class TraceTest : public ProfTest
{
  protected:
    void SetUp() override
    {
        ProfTest::SetUp();
        prof::setEnabled(false);
        prof::setTracing(true);
    }
};

TEST_F(TraceTest, TraceJsonIsWellFormedWithNestedSpans)
{
    const std::string quoted = "value \"quoted\"\n";
    {
        RAMP_PROF_SCOPE(outer, "test.outer", "key", quoted);
        {
            RAMP_PROF_SCOPE(inner, "test.inner");
        }
        prof::instant("test.marker");
    }

    const auto events = traceEvents();
    ASSERT_EQ(events.size(), 5u);
    // The arg survives escaping, and the category is the name's
    // prefix up to the first '.'.
    EXPECT_EQ(events[0].arg, quoted);
    for (const Event &event : events)
        EXPECT_EQ(event.cat, "test") << event.name;

    // Scopes are well-nested per thread by construction: walking
    // each thread's events, every E closes the latest open B.
    std::map<double, std::vector<std::string>> open;
    for (const Event &event : events) {
        if (event.phase == "B") {
            open[event.tid].push_back(event.name);
        } else if (event.phase == "E") {
            ASSERT_FALSE(open[event.tid].empty());
            EXPECT_EQ(open[event.tid].back(), event.name);
            open[event.tid].pop_back();
        } else {
            EXPECT_EQ(event.phase, "i");
        }
    }
    for (const auto &[tid, stack] : open)
        EXPECT_TRUE(stack.empty()) << tid;
}

TEST_F(TraceTest, SpanOrderIsBeginInnerEnd)
{
    {
        RAMP_PROF_SCOPE(outer, "outer");
        RAMP_PROF_SCOPE(inner, "inner");
    }
    const auto events = traceEvents();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].phase, "B");
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[1].phase, "B");
    // Destruction order is inverse construction order.
    EXPECT_EQ(events[2].name, "inner");
    EXPECT_EQ(events[2].phase, "E");
    EXPECT_EQ(events[3].name, "outer");
    EXPECT_EQ(events[3].phase, "E");
    EXPECT_LE(events[0].ts, events[3].ts);
    // Tracing alone leaves the phase trees empty.
    EXPECT_TRUE(prof::snapshot().phases.empty());
}

TEST_F(TraceTest, FaultSimShardsEmitSpansAndCounters)
{
    telemetry::metrics().resetValues();
    telemetry::setEnabled(true);
    FaultSim sim(FaultSimConfig::hbmSecDed());
    sim.run(2000, 42);
    const auto snap = telemetry::metrics().snapshot();
    telemetry::setEnabled(false);
    telemetry::metrics().resetValues();

    EXPECT_EQ(snap.counterOr("faultsim.trials"), 2000u);
    EXPECT_GE(snap.counterOr("faultsim.shards"), 1u);

    bool campaign_span = false, shard_span = false;
    for (const Event &event : traceEvents()) {
        if (event.phase != "B")
            continue;
        if (event.name == "faultsim.campaign") {
            campaign_span = true;
            EXPECT_EQ(event.arg, "HBM-SEC-DED");
        }
        shard_span |= event.name == "faultsim.shard";
    }
    EXPECT_TRUE(campaign_span);
    EXPECT_TRUE(shard_span);
}

TEST_F(TraceTest, LogCaptureEmitsInstantEvents)
{
    prof::captureLogEvents();
    ramp_warn("trace capture probe");

    bool saw = false;
    for (const Event &event : traceEvents())
        if (event.phase == "i" && event.cat == "log" &&
            event.name == "log.warn" &&
            event.arg.find("trace capture probe") != std::string::npos)
            saw = true;
    EXPECT_TRUE(saw);
}

TEST_F(ProfTest, TraceBeginCountsEqualProfileCalls)
{
    const auto run_campaign = [] {
        runner::ThreadPool pool(4);
        pool.runIndexed(32, [](std::size_t index) {
            RAMP_PROF_SCOPE(task, "both.task", "index",
                            std::to_string(index));
            for (std::size_t i = 0; i <= index % 3; ++i) {
                RAMP_PROF_SCOPE_PMU(step, "both.step");
            }
        });
    };

    // Both recorders on: one scope feeds both stores, so every
    // phase's B-event count equals its snapshot calls (summed over
    // the paths ending in it: pool.task;both.task, ...).
    prof::setTracing(true);
    run_campaign();
    std::map<std::string, std::uint64_t> begins, ends, calls;
    for (const Event &event : traceEvents()) {
        if (event.phase == "B")
            ++begins[event.name];
        else if (event.phase == "E")
            ++ends[event.name];
    }
    for (const prof::PhaseStat &phase : prof::snapshot().phases)
        calls[phase.name] += phase.calls;
    EXPECT_EQ(begins["both.task"], 32u);
    EXPECT_EQ(begins["both.step"], 11u * 1 + 11u * 2 + 10u * 3);
    EXPECT_EQ(begins, calls);
    EXPECT_EQ(ends, calls);

    // Profile only: the trace stays empty.
    prof::reset();
    prof::setTracing(false);
    run_campaign();
    EXPECT_TRUE(traceEvents().empty());
    EXPECT_FALSE(prof::snapshot().phases.empty());

    // Trace only: the phase trees stay empty.
    prof::reset();
    prof::setEnabled(false);
    prof::setTracing(true);
    run_campaign();
    EXPECT_FALSE(traceEvents().empty());
    EXPECT_TRUE(prof::snapshot().phases.empty());
}

} // namespace
} // namespace ramp
