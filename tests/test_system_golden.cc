/**
 * @file
 * Golden differential test of HmaSystem::runInPlace.
 *
 * Each case runs one scenario and folds every SimResult field's bit
 * pattern, the profile's (page, reads, writes, avf) in iteration
 * order, and the placement map's migrations()/hbmUsedPages() after
 * the run into a 64-bit FNV-1a digest. The expected digests were
 * recorded on the hash-map implementation of the run loop, so any
 * rewrite of the loop must reproduce that implementation bit for bit:
 * IPC, DRAM timing, residency-weighted SER summation order, profile
 * iteration order, and the fault response.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "faults/injector.hh"
#include "faults/plan.hh"
#include "hma/experiment.hh"
#include "hma/system.hh"
#include "placement/policies.hh"
#include "region/engine.hh"

namespace ramp
{
namespace
{

/** FNV-1a over the bit patterns of the folded values. */
class Digest
{
  public:
    void add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

    void add(bool value) { add(static_cast<std::uint64_t>(value)); }

    void add(const std::string &value)
    {
        add(static_cast<std::uint64_t>(value.size()));
        for (const char c : value)
            add(static_cast<std::uint64_t>(
                static_cast<unsigned char>(c)));
    }

    void add(const DramStats &stats)
    {
        add(stats.reads);
        add(stats.writes);
        add(stats.rowHits);
        add(stats.rowMisses);
        add(stats.busBusyCycles);
        add(stats.totalReadLatency);
    }

    void add(const SimResult &r)
    {
        add(r.label);
        add(r.makespan);
        add(r.instructions);
        add(r.requests);
        add(r.reads);
        add(r.writes);
        add(r.ipc);
        add(r.mpki);
        add(r.avgReadLatency);
        add(r.hbmAccessFraction);
        add(r.hbmStats);
        add(r.ddrStats);
        add(r.migratedPages);
        add(r.migrationEvents);
        add(r.faultsInjected);
        add(r.pagesRetired);
        add(r.capacityLostPages);
        add(r.responseMoves);
        add(r.responseRetries);
        add(r.degraded);
        add(static_cast<std::uint64_t>(r.profile.footprintPages()));
        for (const auto &[page, stats] : r.profile.pages()) {
            add(page);
            add(stats.reads);
            add(stats.writes);
            add(stats.avf);
        }
        add(r.memoryAvf);
        add(r.ser);
    }

    void add(const PlacementMap &map)
    {
        add(map.migrations());
        add(map.hbmUsedPages());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

SystemConfig
goldenConfig()
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 4;
    config.fcIntervalCycles = 10000;
    config.meaIntervalCycles = 1000;
    config.fcMigrationCapPages = 16;
    config.ccPromotionCapPages = 4;
    return config;
}

/** Small HBM so placements, swaps and capacity loss all bite. */
constexpr std::uint64_t goldenHbmPages = 48;

/**
 * Skewed random traces: `pages` pages per namespace, page ids
 * `(ns << 24) + p` so multi-namespace traces are sparse like the
 * service's tenant ids.
 */
std::vector<CoreTrace>
goldenTraces(std::uint64_t seed, int requests, std::uint64_t pages,
             std::vector<std::uint64_t> namespaces)
{
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    std::vector<CoreTrace> traces(4);
    for (std::size_t core = 0; core < traces.size(); ++core) {
        for (int i = 0; i < requests; ++i) {
            // Minimum of two uniforms: hot low-numbered pages.
            const std::uint64_t a = next() % pages;
            const std::uint64_t b = next() % pages;
            const std::uint64_t ns =
                namespaces[next() % namespaces.size()];
            const PageId page = (ns << 24) + std::min(a, b);
            MemRequest req;
            req.addr = pageBase(page) + (next() % linesPerPage) *
                                            lineSize;
            req.gap = static_cast<std::uint32_t>(5 + next() % 60);
            req.core = static_cast<CoreId>(core);
            req.isWrite = next() % 10 < 3;
            traces[core].push_back(req);
        }
    }
    return traces;
}

/** DDR-only profile of a trace set (the static policies' input). */
PageProfile
profileOf(const std::vector<CoreTrace> &traces)
{
    HmaSystem system(goldenConfig());
    return system.run(traces, PlacementMap(goldenHbmPages)).profile;
}

/** Hottest pages in HBM, some of them pinned, cold pages pinned. */
PlacementMap
pinnedPlacement(const PageProfile &profile)
{
    PlacementMap map(goldenHbmPages);
    const auto ranked = profile.sortedByDescending(
        [](const PageStats &s) { return s.hotness(); });
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const PageId page = ranked[i].first;
        if (i < 8)
            map.placePinned(page, MemoryId::HBM);
        else if (i < 40)
            map.place(page, MemoryId::HBM);
        else if (i + 4 >= ranked.size())
            map.placePinned(page, MemoryId::DDR);
    }
    return map;
}

InjectorConfig
stormPlan(PageId hot, PageId cold, PageId untouched)
{
    InjectorConfig faults;
    std::string error;
    faults.script = parseFaultPlan(
        "uncorrected:page=" + std::to_string(cold) + ",epoch=1;" +
            "uncorrected:page=" + std::to_string(hot) + ",epoch=2;" +
            "capacity:tier=hbm,pct=25,epoch=3;" +
            "correctable:page=" + std::to_string(hot + 1) +
            ",count=3,epoch=4;" + "uncorrected:page=" +
            std::to_string(untouched) + ",epoch=5",
        error);
    EXPECT_TRUE(error.empty()) << error;
    faults.epochCycles = 8000;
    faults.sweepCapPages = 4;
    faults.maxRetries = 3;
    return faults;
}

/** Compare a digest, printing the actual value to re-record. */
void
expectDigest(const char *name, const Digest &digest,
             std::uint64_t expected)
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(digest.value()));
    EXPECT_EQ(digest.value(), expected) << name << " digest " << hex;
}

class SystemGolden : public ::testing::Test
{
  protected:
    const SystemConfig config = goldenConfig();
    const std::vector<CoreTrace> traces =
        goldenTraces(7, 6000, 160, {1, 2});
    const PageProfile profile = profileOf(traces);

    Digest runOne(PlacementMap map, MigrationEngine *engine = nullptr,
                  FaultInjector *injector = nullptr,
                  const std::vector<CoreTrace> *custom = nullptr)
    {
        HmaSystem system(config);
        const auto result = system.runInPlace(
            custom != nullptr ? *custom : traces, map, engine,
            injector);
        last = result;
        Digest digest;
        digest.add(result);
        digest.add(map);
        return digest;
    }

    /** The result of the latest runOne(). */
    SimResult last;
};

TEST_F(SystemGolden, DdrOnly)
{
    expectDigest("ddr-only", runOne(PlacementMap(goldenHbmPages)),
                 0xaba3d975ad8ac8f2ull);
}

TEST_F(SystemGolden, StaticPinned)
{
    expectDigest("static-pinned", runOne(pinnedPlacement(profile)),
                 0x8271d10d0ab04af9ull);
}

TEST_F(SystemGolden, DynamicSchemes)
{
    const std::uint64_t expected[] = {
        0x33be4a34f4ad8648ull, 0xe66cb93ec9e6aa43ull,
        0x040f0f94b7921206ull};
    const DynamicScheme schemes[] = {DynamicScheme::PerfFocused,
                                     DynamicScheme::FcReliability,
                                     DynamicScheme::CrossCounter};
    for (int i = 0; i < 3; ++i) {
        const auto engine = makeEngine(schemes[i], config);
        auto initial =
            schemes[i] == DynamicScheme::PerfFocused
                ? pinnedPlacement(profile)
                : buildBalancedFilledPlacement(profile,
                                               goldenHbmPages);
        const Digest digest = runOne(std::move(initial), engine.get());
        expectDigest(dynamicSchemeName(schemes[i]), digest,
                     expected[i]);
        EXPECT_GT(last.migratedPages, 0u);
    }
}

TEST_F(SystemGolden, RegionEngine)
{
    // Dense ids: region spans cover the contiguous footprint. The
    // run starts from an empty HBM so the schemes promote spans.
    const auto dense = goldenTraces(11, 6000, 160, {0});
    const PageProfile dense_profile = profileOf(dense);
    RegionConfig region_config;
    region_config.minRegions = 4;
    region_config.maxRegions = 32;
    std::string error;
    auto schemes = parseRegionSchemes(
        "promote:hot,quota=4;demote:cold,age>=2,quota=4", error);
    ASSERT_TRUE(error.empty()) << error;
    RegionMigrationEngine engine(config.fcIntervalCycles,
                                 region_config, std::move(schemes));
    engine.seedFromProfile(dense_profile);
    expectDigest("region",
                 runOne(PlacementMap(goldenHbmPages), &engine, nullptr,
                        &dense),
                 0x34ccce72ce1386b7ull);
    EXPECT_GT(last.migratedPages, 0u);
}

TEST_F(SystemGolden, FaultStormStaticAndEngine)
{
    const auto ranked = profile.sortedByDescending(
        [](const PageStats &s) { return s.hotness(); });
    const PageId hot = ranked[2].first;
    const PageId cold = ranked[ranked.size() - 10].first;
    const PageId untouched = (3ull << 24) + 5;
    const auto plan = stormPlan(hot, cold, untouched);

    {
        FaultInjector injector(plan);
        HmaSystem system(config);
        PlacementMap map = buildStaticPlacement(
            StaticPolicy::PerfFocused, profile, goldenHbmPages);
        const auto result =
            system.runInPlace(traces, map, nullptr, &injector);
        // The scenario exercises every response path.
        EXPECT_EQ(result.pagesRetired, 3u);
        EXPECT_GT(result.capacityLostPages, 0u);
        // One retire crosses tiers; the rest are sweep demotions.
        EXPECT_GT(result.responseMoves, 1u);
        EXPECT_GT(result.responseRetries, 0u);
        EXPECT_TRUE(result.degraded);
        Digest digest;
        digest.add(result);
        digest.add(map);
        expectDigest("storm-static", digest, 0xd16ef6bb347b5914ull);
    }
    {
        FaultInjector injector(plan);
        const auto engine =
            makeEngine(DynamicScheme::CrossCounter, config);
        expectDigest(
            "storm-cc",
            runOne(buildBalancedFilledPlacement(profile,
                                                goldenHbmPages),
                   engine.get(), &injector),
            0x9249c90a623076bcull);
    }
}

TEST_F(SystemGolden, PersistentMapAcrossRuns)
{
    // The service pattern: one map accumulates frames, moves and
    // placements across successive runInPlace calls.
    PlacementMap map = buildStaticPlacement(
        StaticPolicy::PerfFocused, profile, goldenHbmPages / 2);
    const auto first = goldenTraces(21, 3000, 120, {1});
    const auto second = goldenTraces(22, 3000, 120, {1, 4});
    HmaSystem system(config);
    Digest digest;
    digest.add(system.runInPlace(first, map));
    digest.add(map);
    map.moveRange((1ull << 24) + 100, 8, MemoryId::HBM);
    map.placeRange((4ull << 24), 6, MemoryId::HBM);
    HmaSystem again(config);
    digest.add(again.runInPlace(second, map));
    digest.add(map);
    expectDigest("persistent", digest, 0xdc2176ab9f65ffe0ull);
}

TEST_F(SystemGolden, EmptyTraces)
{
    const std::vector<CoreTrace> empty(4);
    expectDigest("empty",
                 runOne(pinnedPlacement(profile), nullptr, nullptr,
                        &empty),
                 0x38f0230a7a59afecull);
}

} // namespace
} // namespace ramp
