/**
 * @file
 * Tests for the multi-tenant placement service (src/service).
 *
 * Locks the service's structural guarantees: deterministic shard
 * routing and --jobs-invariant per-tenant results, the arbiter's
 * conservation invariants (grants never exceed capacity, demand, or
 * the fair-share quota), the fair-share vs reliability-weighted
 * ordering on a hand-built two-tenant contention scenario, and
 * bit-exactness of a single-tenant single-shard service run against
 * the same workload driven through a bare HmaSystem. Fault storms are
 * checked against a ledger replay of the struck shard's HBM set, and
 * a golden digest pins every result field and per-epoch history of a
 * storm run with solo baselines.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <gtest/gtest.h>
#include <set>
#include <sstream>
#include <string>

#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "runner/pool.hh"
#include "service/service.hh"

namespace ramp
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 4;
    return config;
}

service::TenantSpec
smallSpec(std::uint32_t id)
{
    service::TenantSpec spec;
    spec.id = id;
    spec.footprintPages = 256;
    spec.requests = 4096;
    spec.cores = 2;
    spec.zipfSkew = 0.7;
    spec.writeFraction = 0.25;
    spec.seed = 100 + id;
    spec.hbmQuotaFraction = 0.5;
    spec.relClass = static_cast<service::ReliabilityClass>(id % 3);
    return spec;
}

service::ServiceResult
runService(const SystemConfig &system,
           const service::ServiceConfig &config,
           std::uint32_t tenants, unsigned jobs)
{
    service::PlacementService placement(system, config);
    for (std::uint32_t id = 1; id <= tenants; ++id)
        EXPECT_TRUE(placement.admit(smallSpec(id)));
    runner::ThreadPool pool(jobs);
    return placement.run(pool);
}

TEST(ServiceRouting, HashIsDeterministicAndInRange)
{
    for (unsigned shards : {1u, 2u, 5u, 16u}) {
        for (std::uint32_t id = 1; id < 200; ++id) {
            const unsigned a = service::shardOf(id, shards, 42);
            const unsigned b = service::shardOf(id, shards, 42);
            EXPECT_EQ(a, b);
            EXPECT_LT(a, shards);
        }
    }
    // A different salt reshuffles at least one tenant (16 shards,
    // 200 tenants: astronomically unlikely to collide entirely).
    bool moved = false;
    for (std::uint32_t id = 1; id < 200 && !moved; ++id)
        moved = service::shardOf(id, 16, 1) !=
                service::shardOf(id, 16, 2);
    EXPECT_TRUE(moved);
}

TEST(ServiceRouting, PageNamespaceRoundTrips)
{
    for (std::uint32_t id : {1u, 7u, 200u, 65535u}) {
        const PageId base = service::tenantBasePage(id);
        EXPECT_EQ(service::tenantOfPage(base), id);
        EXPECT_EQ(service::tenantOfPage(base + 1000), id);
    }
}

TEST(ServiceRouting, ResultsInvariantUnderJobs)
{
    const SystemConfig system = smallConfig();
    service::ServiceConfig config;
    config.shards = 3;
    config.epochs = 3;
    config.soloBaselines = true;

    const service::ServiceResult serial =
        runService(system, config, 9, 1);
    const service::ServiceResult wide =
        runService(system, config, 9, 4);

    ASSERT_EQ(serial.tenants.size(), wide.tenants.size());
    for (std::size_t i = 0; i < serial.tenants.size(); ++i) {
        const service::TenantResult &a = serial.tenants[i];
        const service::TenantResult &b = wide.tenants[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.shard, b.shard);
        EXPECT_EQ(a.requests, b.requests);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.makespan, b.makespan);
        EXPECT_EQ(a.soloMakespan, b.soloMakespan);
        EXPECT_EQ(a.grantedPages, b.grantedPages);
        EXPECT_EQ(a.quotaClips, b.quotaClips);
        EXPECT_EQ(a.movedPages, b.movedPages);
        EXPECT_DOUBLE_EQ(a.meanHbmPages, b.meanHbmPages);
        EXPECT_DOUBLE_EQ(a.ser, b.ser);
    }
    EXPECT_DOUBLE_EQ(serial.fairnessIndex, wide.fairnessIndex);
    EXPECT_EQ(serial.quotaClips, wide.quotaClips);
    EXPECT_EQ(serial.rebalanceMoves, wide.rebalanceMoves);
}

TEST(ServiceArbiter, GrantsConserveCapacityAndDemand)
{
    std::vector<service::TenantDemand> demands;
    for (std::uint32_t id = 1; id <= 6; ++id) {
        service::TenantDemand demand;
        demand.id = id;
        demand.demandPages = 100 * id;
        demand.quotaFraction = 0.4;
        demand.classWeight =
            service::reliabilityClassWeight(
                static_cast<service::ReliabilityClass>(id % 3));
        demand.meanAvf = 0.1 * static_cast<double>(id);
        demand.priority = static_cast<int>(id % 2);
        demands.push_back(demand);
    }
    for (const service::ArbiterPolicy policy :
         {service::ArbiterPolicy::FairShare,
          service::ArbiterPolicy::ReliabilityWeighted}) {
        for (const std::uint64_t capacity :
             {std::uint64_t{0}, std::uint64_t{50},
              std::uint64_t{500}, std::uint64_t{100000}}) {
            std::uint64_t clips = 0;
            const std::vector<std::uint64_t> grants =
                service::arbitrate(policy, capacity, demands,
                                   &clips);
            ASSERT_EQ(grants.size(), demands.size());
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < grants.size(); ++i) {
                EXPECT_LE(grants[i], demands[i].demandPages);
                total += grants[i];
            }
            EXPECT_LE(total, capacity);
            if (policy == service::ArbiterPolicy::FairShare) {
                // Strict quotas, normalized when oversubscribed:
                // sum_qf = 2.4, so each tenant's ceiling is
                // capacity * 0.4 / 2.4.
                for (const std::uint64_t grant : grants)
                    EXPECT_LE(grant,
                              static_cast<std::uint64_t>(
                                  static_cast<double>(capacity) *
                                  0.4 / 2.4) +
                                  1);
            }
        }
    }
}

TEST(ServiceArbiter, ReliabilityWeightedFavorsCriticalTenants)
{
    // Two identical tenants contending 2:1 for capacity; they
    // differ only in reliability class and measured AVF.
    std::vector<service::TenantDemand> demands(2);
    demands[0].id = 1;
    demands[0].demandPages = 1000;
    demands[0].quotaFraction = 1.0;
    demands[0].classWeight = service::reliabilityClassWeight(
        service::ReliabilityClass::Critical);
    demands[0].meanAvf = 0.8;
    demands[1].id = 2;
    demands[1].demandPages = 1000;
    demands[1].quotaFraction = 1.0;
    demands[1].classWeight = service::reliabilityClassWeight(
        service::ReliabilityClass::Tolerant);
    demands[1].meanAvf = 0.1;

    const std::uint64_t capacity = 1000;
    const std::vector<std::uint64_t> fair = service::arbitrate(
        service::ArbiterPolicy::FairShare, capacity, demands);
    const std::vector<std::uint64_t> weighted =
        service::arbitrate(
            service::ArbiterPolicy::ReliabilityWeighted, capacity,
            demands);

    // Fair-share ignores the classes: equal quotas, equal grants.
    ASSERT_EQ(fair.size(), 2u);
    EXPECT_EQ(fair[0], fair[1]);

    // Reliability-weighted tilts toward the critical, high-AVF
    // tenant — strictly more than its fair share and than its
    // tolerant competitor.
    ASSERT_EQ(weighted.size(), 2u);
    EXPECT_GT(weighted[0], weighted[1]);
    EXPECT_GT(weighted[0], fair[0]);
    EXPECT_LE(weighted[0] + weighted[1], capacity);
}

TEST(ServiceAdmission, RejectsInvalidSpecs)
{
    const SystemConfig system = smallConfig();
    service::PlacementService placement(system, {});

    service::TenantSpec zero_id = smallSpec(1);
    zero_id.id = 0;
    EXPECT_FALSE(placement.admit(zero_id));

    EXPECT_TRUE(placement.admit(smallSpec(1)));
    EXPECT_FALSE(placement.admit(smallSpec(1))); // duplicate

    service::TenantSpec bad_quota = smallSpec(2);
    bad_quota.hbmQuotaFraction = 0.0;
    EXPECT_FALSE(placement.admit(bad_quota));
    bad_quota.hbmQuotaFraction = 1.5;
    EXPECT_FALSE(placement.admit(bad_quota));

    service::TenantSpec too_wide = smallSpec(3);
    too_wide.cores =
        static_cast<std::uint32_t>(system.cores) + 1;
    EXPECT_FALSE(placement.admit(too_wide));

    EXPECT_EQ(placement.tenantCount(), 1u);
}

TEST(ServiceEquivalence, SingleTenantMatchesBareSystem)
{
    // One tenant, one shard, one epoch, full quota: the service is
    // exactly "profile, place the granted hot-set prefix, run" —
    // the same steps driven by hand through a bare HmaSystem must
    // produce bit-identical performance and reliability numbers.
    const SystemConfig system = smallConfig();
    service::TenantSpec spec = smallSpec(1);
    spec.hbmQuotaFraction = 1.0;

    service::ServiceConfig config;
    config.shards = 1;
    config.epochs = 1;

    service::PlacementService placement(system, config);
    ASSERT_TRUE(placement.admit(spec));
    runner::ThreadPool pool(2);
    const service::ServiceResult result = placement.run(pool);
    ASSERT_EQ(result.tenants.size(), 1u);
    const service::TenantResult &tenant = result.tenants[0];

    // The bare equivalent of the service's single epoch.
    const std::vector<CoreTrace> traces =
        service::buildTenantTrace(spec);
    const PageProfile profile =
        service::profileTenantTrace(traces);
    const auto ranking = profile.sortedByDescending(
        [](const PageStats &stats) { return stats.hotness(); });
    const double mean_hotness = profile.meanHotness();
    std::uint64_t demand = 0;
    for (const auto &entry : ranking) {
        if (static_cast<double>(entry.second.hotness()) <
            mean_hotness)
            break;
        ++demand;
    }
    demand = std::max<std::uint64_t>(1, demand);

    const std::uint64_t capacity = system.hbmPages();
    const std::uint64_t grant = std::min(demand, capacity);
    PlacementMap map(capacity);
    const std::size_t target =
        std::min<std::size_t>(grant, ranking.size());
    for (std::size_t i = 0; i < target; ++i) {
        if (map.hbmFreePages() == 0)
            break;
        map.place(ranking[i].first, MemoryId::HBM);
    }
    HmaSystem bare(system);
    const SimResult expected = bare.run(traces, map);

    EXPECT_EQ(tenant.requests, expected.requests);
    EXPECT_EQ(tenant.instructions, expected.instructions);
    EXPECT_EQ(tenant.makespan, expected.makespan);
    EXPECT_DOUBLE_EQ(tenant.ser, expected.ser);
    EXPECT_EQ(tenant.grantedPages, grant);
    EXPECT_EQ(tenant.demandPages,
              std::max<std::uint64_t>(
                  1, expected.profile.footprintPages()));
}

/** Turn the ledger on for one test and leave it off and empty. */
struct LedgerOn
{
    LedgerOn()
    {
        eventlog::reset();
        eventlog::setEnabled(true);
    }
    ~LedgerOn()
    {
        eventlog::setEnabled(false);
        eventlog::reset();
    }
};

TEST(ServiceFaults, StormDegradesOnlyTheStruckShard)
{
    const SystemConfig system = smallConfig();
    service::ServiceConfig config;
    config.shards = 2;
    config.epochs = 3;
    config.hbmPagesPerShard = 48; // full enough that the loss sweeps
    // Two strike events in one epoch whose index ranges overlap, a
    // capacity loss (and its sweep) between strikes, and a third
    // event an epoch later.
    const std::string plan =
        "uncorrected:page=3,count=5,epoch=2;"
        "capacity:tier=hbm,pct=25,epoch=2;"
        "uncorrected:page=5,count=6,epoch=2;"
        "uncorrected:page=40,count=4,epoch=3";
    std::string error;
    config.faultPlan = parseFaultPlan(plan, error);
    ASSERT_TRUE(error.empty()) << error;
    config.faultShard = 0;

    const LedgerOn ledger;
    const service::ServiceResult result =
        runService(system, config, 8, 2);

    ASSERT_EQ(result.shards.size(), 2u);
    EXPECT_TRUE(result.shards[0].degraded);
    EXPECT_GT(result.shards[0].faultsApplied, 0u);
    EXPECT_GT(result.shards[0].capacityLostPages, 0u);
    EXPECT_FALSE(result.shards[1].degraded);
    EXPECT_EQ(result.shards[1].faultsApplied, 0u);

    // Degradation is attributed tenant by tenant along the
    // routing: exactly the tenants homed on shard 0.
    for (const service::TenantResult &tenant : result.tenants)
        EXPECT_EQ(tenant.degraded, tenant.shard == 0u);

    // Every strike retires a live HBM page, and a retired page never
    // returns to HBM, so each strike counts exactly once.
    struct Strike
    {
        std::uint64_t epoch;
        PageId page;
        std::uint64_t c;
    };
    std::vector<Strike> strikes;
    for (const FaultEvent &event : config.faultPlan)
        if (event.kind == FaultEventKind::Uncorrected)
            for (std::uint64_t c = 0; c < event.count; ++c)
                strikes.push_back({event.epoch, event.page, c});
    std::stable_sort(strikes.begin(), strikes.end(),
                     [](const Strike &a, const Strike &b) {
                         return a.epoch < b.epoch;
                     });
    EXPECT_EQ(result.shards[0].pagesRetired, strikes.size());
    std::uint64_t tenant_retired = 0;
    for (const service::TenantResult &tenant : result.tenants)
        tenant_retired += tenant.pagesRetired;
    EXPECT_EQ(tenant_retired, strikes.size());

    // Replay the struck shard's HBM set from its ledger (one shard is
    // one task, so its records keep program order) and check every
    // victim against the strike rule: the (page + c)-th entry, modulo
    // size, of the sorted live population.
    std::set<std::uint32_t> struck_tenants;
    for (const service::TenantResult &tenant : result.tenants)
        if (tenant.shard == 0)
            struck_tenants.insert(tenant.id);
    std::set<PageId> hbm;
    std::set<PageId> retired;
    std::size_t next_strike = 0;
    for (const eventlog::EventRecord &record : eventlog::collect()) {
        if (eventlog::runLabel(record.run).rfind("svc/", 0) != 0 ||
            struck_tenants.count(record.tenant) == 0)
            continue;
        switch (record.kind) {
          case eventlog::EventKind::Place:
          case eventlog::EventKind::Promote:
            EXPECT_EQ(retired.count(record.page), 0u)
                << "retired page " << record.page << " re-entered HBM";
            EXPECT_TRUE(hbm.insert(record.page).second);
            break;
          case eventlog::EventKind::Evict:
            EXPECT_EQ(hbm.erase(record.page), 1u);
            break;
          case eventlog::EventKind::Retire: {
            ASSERT_LT(next_strike, strikes.size());
            const Strike &strike = strikes[next_strike++];
            EXPECT_EQ(record.epoch, strike.epoch);
            ASSERT_FALSE(hbm.empty());
            const PageId expected = *std::next(
                hbm.begin(), static_cast<std::ptrdiff_t>(
                                 (strike.page + strike.c) % hbm.size()));
            EXPECT_EQ(record.page, expected);
            EXPECT_EQ(record.src, eventlog::Tier::Hbm);
            EXPECT_EQ(record.dst, eventlog::Tier::Ddr);
            EXPECT_TRUE(retired.insert(record.page).second)
                << "page " << record.page << " retired twice";
            hbm.erase(record.page);
            break;
          }
          default:
            break;
        }
    }
    EXPECT_EQ(next_strike, strikes.size());
}

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

    void add(const std::string &value)
    {
        add(static_cast<std::uint64_t>(value.size()));
        for (const char c : value)
            add(static_cast<std::uint64_t>(
                static_cast<unsigned char>(c)));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/**
 * Every result bit of a storm run with solo baselines: each
 * TenantResult and ShardResult field, the run totals, and the health
 * timeline's per-epoch samples, which carry each tenant's resident,
 * grant, share and makespan-vs-solo history and each shard's
 * capacity, occupancy and retirement history.
 */
std::uint64_t
stormDigest(unsigned jobs)
{
    const SystemConfig system = smallConfig();
    service::ServiceConfig config;
    config.shards = 2;
    config.epochs = 5;
    config.arbiter = service::ArbiterPolicy::ReliabilityWeighted;
    config.hbmPagesPerShard = 96; // the loss leaves it overfull
    config.promoteBudgetPages = 24;
    config.demoteBudgetPages = 24;
    config.soloBaselines = true;
    std::string error;
    config.faultPlan = parseFaultPlan(
        "uncorrected:page=3,count=8,epoch=2;"
        "capacity:tier=hbm,pct=25,epoch=3;"
        "uncorrected:page=77,count=8,epoch=4",
        error);
    EXPECT_TRUE(error.empty()) << error;

    health::reset();
    health::setRules({});
    health::setEnabled(true);
    const service::ServiceResult result =
        runService(system, config, 8, jobs);
    const std::string timeline = health::timelineJsonl("test");
    health::setEnabled(false);
    health::reset();

    Digest digest;
    for (const service::TenantResult &t : result.tenants) {
        digest.add(t.name);
        digest.add(std::uint64_t{t.id});
        digest.add(std::uint64_t{t.shard});
        digest.add(t.requests);
        digest.add(t.instructions);
        digest.add(t.makespan);
        digest.add(t.soloMakespan);
        digest.add(t.slowdown);
        digest.add(t.ipc);
        digest.add(t.meanHbmShare);
        digest.add(t.meanHbmPages);
        digest.add(t.grantedPages);
        digest.add(t.demandPages);
        digest.add(t.quotaClips);
        digest.add(t.movedPages);
        digest.add(t.pagesRetired);
        digest.add(t.ser);
        digest.add(t.meanAvf);
        digest.add(std::uint64_t{t.degraded});
    }
    for (const service::ShardResult &s : result.shards) {
        digest.add(std::uint64_t{s.shard});
        digest.add(s.tenants);
        digest.add(s.hbmCapacityPages);
        digest.add(s.hbmUsedPages);
        digest.add(s.faultsApplied);
        digest.add(s.capacityLostPages);
        digest.add(s.pagesRetired);
        digest.add(std::uint64_t{s.degraded});
    }
    digest.add(result.arbitrationRounds);
    digest.add(result.quotaClips);
    digest.add(result.rebalanceMoves);
    digest.add(result.totalRequests);
    digest.add(result.totalInstructions);
    digest.add(result.fairnessIndex);
    digest.add(result.p99Slowdown);
    for (const double x : result.fairnessByEpoch)
        digest.add(x);
    for (const double x : result.p99ByEpoch)
        digest.add(x);
    std::istringstream lines(timeline);
    std::uint64_t samples = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("{\"type\": \"sample\"", 0) != 0)
            continue;
        digest.add(line);
        ++samples;
    }
    EXPECT_EQ(samples, config.epochs);
    return digest.value();
}

TEST(ServiceGolden, StormWithSoloBaselines)
{
    // Recorded on the service that rescanned the shard map for every
    // strike and residency count; the residency view must reproduce
    // it bit for bit at any --jobs.
    constexpr std::uint64_t expected = 0xce1b1b3cacc1f82eull;
    for (const unsigned jobs : {1u, 4u})
        EXPECT_EQ(stormDigest(jobs), expected)
            << std::hex << "jobs " << jobs << ": 0x"
            << stormDigest(jobs);
}

} // namespace
} // namespace ramp
