#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cache/filter.hh"
#include "eventlog/eventlog.hh"
#include "faults/plan.hh"
#include "health/health.hh"
#include "hma/experiment.hh"
#include "report.hh"
#include "service/service.hh"

namespace perfbench
{

using namespace ramp;

namespace
{

/**
 * @{ @name Input sizes at scale 1
 * The campaigns run at a fraction of the paper's trace length so that
 * a warm-up and several timed rounds fit one run; README.md ("Input
 * size of the campaigns") measures how that shifts the per-access mix.
 */
/** Trace scale of the static sweep (memory-level traces). */
constexpr double staticTraceScale = 0.12;

/** Trace scale of the migration mix (CPU-level, before filtering). */
constexpr double migrationTraceScale = 0.12;

constexpr std::uint64_t serviceTenants = 64;
constexpr unsigned serviceShards = 4;
constexpr unsigned serviceEpochs = 6;
constexpr std::uint64_t servicePages = 1'000'000;
constexpr std::uint64_t serviceRequests = 4'000'000;

/** Throwaway service setups timed per pool task and round. */
constexpr int serviceSetupsPerTask = 16;

/** The storm: a quarter of shard 0's HBM dies, then page strikes. */
constexpr const char *serviceStorm =
    "capacity:tier=hbm,pct=25,epoch=2;"
    "uncorrected:page=7,count=48,epoch=3;"
    "uncorrected:page=4099,count=48,epoch=5";
/** @} */

std::uint64_t
traceRequests(const std::vector<CoreTrace> &traces)
{
    std::uint64_t total = 0;
    for (const CoreTrace &trace : traces)
        total += trace.size();
    return total;
}

void
addStats(Digest &digest, const DramStats &stats)
{
    digest.add(stats.reads);
    digest.add(stats.writes);
    digest.add(stats.rowHits);
    digest.add(stats.rowMisses);
    digest.add(stats.busBusyCycles);
    digest.add(stats.totalReadLatency);
}

} // namespace

std::uint64_t
simDigest(const SimResult &r)
{
    Digest d;
    d.add(r.label);
    for (const std::uint64_t v :
         {r.makespan, r.instructions, r.requests, r.reads, r.writes,
          r.migratedPages, r.migrationEvents, r.faultsInjected,
          r.pagesRetired, r.capacityLostPages, r.responseMoves,
          r.responseRetries, std::uint64_t{r.degraded}})
        d.add(v);
    for (const double v : {r.ipc, r.mpki, r.avgReadLatency,
                           r.hbmAccessFraction, r.memoryAvf, r.ser})
        d.add(v);
    addStats(d, r.hbmStats);
    addStats(d, r.ddrStats);
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (const auto &[page, stats] : r.profile.pages()) {
        reads += stats.reads;
        writes += stats.writes;
    }
    d.add(std::uint64_t{r.profile.footprintPages()});
    d.add(reads);
    d.add(writes);
    return d.value();
}

namespace
{

/** One pass's result reduced to what the round keeps. */
struct Pass
{
    SimResult result;
    std::uint64_t expected = 0;
    std::uint64_t digest = 0;
    double seconds = 0;
};

/** Check a pass and fold it into the round (profile dropped). */
void
finishPass(Pass &pass)
{
    pass.digest = simDigest(pass.result);
    pass.result.profile = PageProfile{};
}

void
checkPass(Round &round, const Pass &pass)
{
    const SimResult &r = pass.result;
    ++round.attempted;
    const char *error = nullptr;
    if (r.reads + r.writes != r.requests)
        error = "reads + writes != requests";
    else if (r.requests != pass.expected)
        error = "requests != trace length";
    else if (!std::isfinite(r.ipc) || r.ipc <= 0)
        error = "IPC not finite and positive";
    else if (!std::isfinite(r.ser) || r.ser <= 0)
        error = "SER not finite and positive";
    if (error != nullptr) {
        ++round.failed;
        round.failures.push_back(r.label + ": " + error);
    }
}

/** A workload's traces and its DDR-only profile. */
struct Prepared
{
    WorkloadData data;
    Pass base;
    std::uint64_t generated = 0;
    FilterStats filter;
};

/**
 * Setup shared by the two paper campaigns: generate each workload
 * (CPU-level traces go through the cache filter) and run its
 * DDR-only profiling pass, one pool task per workload.
 */
std::vector<Prepared>
prepareAll(const Context &ctx, bool cpu_level, int setup_span)
{
    Tracer &tracer = *ctx.tracer;
    const SystemConfig config;
    const auto specs = motivationWorkloads();
    std::vector<Prepared> prepared(specs.size());
    ctx.pool->runIndexed(specs.size(), [&](std::size_t w) {
        Prepared &p = prepared[w];
        GeneratorOptions options;
        options.seed = runner::taskSeed(ctx.seed, w);
        options.traceScale =
            ctx.scale *
            (cpu_level ? migrationTraceScale : staticTraceScale);
        options.cpuLevel = cpu_level;
        {
            SpanScope span(tracer, "trace.generate", setup_span,
                           static_cast<int>(w));
            p.data = prepareWorkload(specs[w], options);
        }
        p.generated = traceRequests(p.data.traces);
        if (cpu_level) {
            SpanScope span(tracer, "cache.filter", setup_span,
                           static_cast<int>(w));
            p.data.traces = filterTraces(p.data.traces,
                                         HierarchyConfig{}, &p.filter);
        }
        SpanScope span(tracer, "hma.ddr_only", setup_span,
                       static_cast<int>(w));
        p.base.result = runDdrOnly(config, p.data);
        p.base.expected = traceRequests(p.data.traces);
    });
    return prepared;
}

/** One pass of a paper campaign and how to build its placement. */
struct PassPlan
{
    std::size_t workload = 0;
    std::string label;
    std::function<PlacementMap()> build;
    std::optional<PlacementMap> placement;
    std::unique_ptr<MigrationEngine> engine;
    bool region = false;
};

/**
 * Times every onInterval call of the engine it wraps (traced run
 * only); every other call forwards unchanged.
 */
class TimedEngine final : public MigrationEngine
{
  public:
    TimedEngine(MigrationEngine &inner, Tracer &tracer, int parent,
                int pass)
        : inner_(inner), tracer_(tracer), parent_(parent), pass_(pass)
    {
    }

    const char *name() const override { return inner_.name(); }
    void onAccess(PageId page, bool is_write, MemoryId mem) override
    {
        inner_.onAccess(page, is_write, mem);
    }
    Cycle interval() const override { return inner_.interval(); }
    MigrationDecision onInterval(Cycle now,
                                 const PlacementMap &map) override
    {
        SpanScope span(tracer_, "migration.interval", parent_, pass_);
        return inner_.onInterval(now, map);
    }
    Cycle remapPenalty(PageId page) override
    {
        return inner_.remapPenalty(page);
    }
    void onFault(PageId page, bool uncorrected, Cycle now) override
    {
        inner_.onFault(page, uncorrected, now);
    }
    std::uint64_t hardwareCostBytes(std::uint64_t total_pages,
                                    std::uint64_t hbm_pages) const override
    {
        return inner_.hardwareCostBytes(total_pages, hbm_pages);
    }

  private:
    MigrationEngine &inner_;
    Tracer &tracer_;
    int parent_;
    int pass_;
};

/**
 * Run a paper campaign round: setup (prepare + placements), then
 * every planned pass on the pool, then the checks and the digest.
 */
Round
runCampaign(const Context &ctx, bool cpu_level,
            std::vector<PassPlan> (*plan)(const std::vector<Prepared> &,
                                          const SystemConfig &))
{
    Tracer &tracer = *ctx.tracer;
    const SystemConfig config;
    Round round;
    const double cpu_start = processCpuSeconds();
    const auto start = Clock::now();
    const int workload_span = tracer.begin("workload");

    const int setup_span = tracer.begin("setup", workload_span);
    std::vector<Prepared> prepared =
        prepareAll(ctx, cpu_level, setup_span);
    std::vector<PassPlan> plans = plan(prepared, config);
    ctx.pool->runIndexed(plans.size(), [&](std::size_t i) {
        if (!plans[i].build)
            return; // the region engine builds its own placement
        SpanScope span(tracer, "placement.build", setup_span,
                       static_cast<int>(i));
        plans[i].placement = plans[i].build();
    });
    tracer.end(setup_span);
    std::uint64_t placed = 0;
    for (const PassPlan &p : plans)
        if (p.placement)
            placed += p.placement->hbmUsedPages();
    round.setupS = secondsSince(start);

    const auto passes_start = Clock::now();
    const int passes_span = tracer.begin("passes", workload_span);
    std::vector<Pass> passes(plans.size());
    ctx.pool->runIndexed(plans.size(), [&](std::size_t i) {
        PassPlan &p = plans[i];
        const WorkloadData &data = prepared[p.workload].data;
        const auto pass_start = Clock::now();
        if (p.region) {
            SpanScope span(tracer, "region.pass", passes_span,
                           static_cast<int>(i));
            passes[i].result = runRegionDynamic(
                config, data, prepared[p.workload].base.result.profile);
        } else {
            SpanScope span(tracer, "hma.run", passes_span,
                           static_cast<int>(i));
            std::optional<TimedEngine> timed;
            MigrationEngine *engine = p.engine.get();
            if (engine != nullptr && tracer.enabled())
                engine = &timed.emplace(*engine, tracer, span.id(),
                                        static_cast<int>(i));
            HmaSystem system(config);
            passes[i].result = system.run(
                data.traces, std::move(*p.placement), engine);
        }
        passes[i].seconds = secondsSince(pass_start);
        passes[i].result.label =
            std::string(data.spec.name) + "/" + p.label;
        passes[i].expected = traceRequests(data.traces);
        finishPass(passes[i]);
    });
    tracer.end(passes_span);
    tracer.end(workload_span);
    round.passesS = secondsSince(passes_start);
    round.wallS = secondsSince(start);
    round.cpuS = processCpuSeconds() - cpu_start;

    // Checks, counts and the digest (off the clock).
    Digest digest;
    std::uint64_t generated = 0;
    std::uint64_t cpu_accesses = 0;
    std::uint64_t mem_accesses = 0;
    for (Prepared &p : prepared) {
        finishPass(p.base);
        p.base.result.label = p.data.spec.name + "/ddr-only";
        checkPass(round, p.base);
        digest.add(p.base.digest);
        digest.add(p.generated);
        digest.add(p.filter.cpuAccesses);
        digest.add(p.filter.memAccesses);
        digest.add(p.filter.writebacks);
        generated += p.generated;
        cpu_accesses += p.filter.cpuAccesses;
        mem_accesses += p.filter.memAccesses;
    }
    std::uint64_t row_hits = 0;
    std::uint64_t row_total = 0;
    double hbm_accesses = 0;
    double ipc_sum = 0;
    std::uint64_t moved = 0;
    std::uint64_t epochs = 0;
    double pass_sum = 0;
    for (const Pass &pass : passes) {
        const SimResult &r = pass.result;
        checkPass(round, pass);
        digest.add(pass.digest);
        round.accesses += r.requests;
        round.passSeconds.push_back(pass.seconds);
        pass_sum += pass.seconds;
        for (const DramStats *s : {&r.hbmStats, &r.ddrStats}) {
            row_hits += s->rowHits;
            row_total += s->rowHits + s->rowMisses;
        }
        hbm_accesses += r.hbmAccessFraction *
                        static_cast<double>(r.requests);
        ipc_sum += r.ipc;
        moved += r.migratedPages;
        epochs += r.migrationEvents;
    }
    round.digest = digest.hex();
    round.busyFrac = pass_sum / (round.passesS * ctx.pool->jobs());

    auto &c = round.counts;
    c["trace.requests"] = static_cast<double>(generated);
    c["cache.accesses"] = static_cast<double>(cpu_accesses);
    c["cache.pass_ratio"] =
        cpu_accesses == 0 ? 0.0
                          : static_cast<double>(mem_accesses) /
                                static_cast<double>(cpu_accesses);
    c["placement.moves"] = static_cast<double>(placed);
    c["migration.pages_moved"] = static_cast<double>(moved);
    c["migration.epochs"] = static_cast<double>(epochs);
    c["runner.passes"] = static_cast<double>(passes.size());
    c["dram.row_hit_ratio"] =
        row_total == 0 ? 0.0
                       : static_cast<double>(row_hits) /
                             static_cast<double>(row_total);
    c["hma.hbm_access_frac"] =
        hbm_accesses / static_cast<double>(round.accesses);
    c["hma.ipc_mean"] = ipc_sum / static_cast<double>(passes.size());
    return round;
}

// The passes below are exactly runHotFraction / runStaticPolicy /
// runDynamic with the placement built up front, so its cost lands
// in setup_s (the self-test checks the equivalence).

std::vector<PassPlan>
planStaticSweep(const std::vector<Prepared> &prepared,
                const SystemConfig &config)
{
    std::vector<PassPlan> plans;
    const std::uint64_t hbm = config.hbmPages();
    for (std::size_t w = 0; w < prepared.size(); ++w) {
        const PageProfile &profile = prepared[w].base.result.profile;
        // Figure 1: the hot-fraction sweep plus its balanced point.
        for (int f = 0; f <= 11; ++f) {
            PassPlan p;
            p.workload = w;
            p.label = f == 11 ? std::string("fig1-balanced")
                              : "hot@" + std::to_string(f * 10) + "%";
            p.build = [&profile, hbm, f] {
                return f == 11 ? buildStaticPlacement(
                                     StaticPolicy::Balanced, profile, hbm)
                               : buildHotFractionPlacement(profile, hbm,
                                                           f / 10.0);
            };
            plans.push_back(std::move(p));
        }
        // Table 3: the five static policies.
        for (const StaticPolicy policy :
             {StaticPolicy::PerfFocused,
              StaticPolicy::ReliabilityFocused, StaticPolicy::Balanced,
              StaticPolicy::WrRatio, StaticPolicy::Wr2Ratio}) {
            PassPlan p;
            p.workload = w;
            p.label = policyName(policy);
            p.build = [&profile, hbm, policy] {
                return buildStaticPlacement(policy, profile, hbm);
            };
            plans.push_back(std::move(p));
        }
    }
    return plans;
}

std::vector<PassPlan>
planMigrationMix(const std::vector<Prepared> &prepared,
                 const SystemConfig &config)
{
    std::vector<PassPlan> plans;
    const std::uint64_t hbm = config.hbmPages();
    for (std::size_t w = 0; w < prepared.size(); ++w) {
        const PageProfile &profile = prepared[w].base.result.profile;
        for (const DynamicScheme scheme :
             {DynamicScheme::PerfFocused, DynamicScheme::FcReliability,
              DynamicScheme::CrossCounter}) {
            PassPlan p;
            p.workload = w;
            p.label = dynamicSchemeName(scheme);
            p.build = [&profile, hbm, scheme] {
                return scheme == DynamicScheme::PerfFocused
                           ? buildStaticPlacement(
                                 StaticPolicy::PerfFocused, profile, hbm)
                           : buildBalancedFilledPlacement(profile, hbm);
            };
            p.engine = makeEngine(scheme, config);
            plans.push_back(std::move(p));
        }
        PassPlan region;
        region.workload = w;
        region.label = "region-migration";
        region.region = true;
        plans.push_back(std::move(region));
    }
    return plans;
}

Round
runStaticSweep(const Context &ctx)
{
    return runCampaign(ctx, false, planStaticSweep);
}

Round
runMigrationMix(const Context &ctx)
{
    return runCampaign(ctx, true, planMigrationMix);
}

/** One workload's generated (and, CPU-level, filtered) stream. */
ReplayInput
campaignReplay(const Context &ctx, bool cpu_level)
{
    Tracer off;
    Context one = ctx;
    one.tracer = &off;
    Prepared p = std::move(prepareAll(one, cpu_level, -1).front());
    ReplayInput in;
    const PageProfile &profile = p.base.result.profile;
    in.placement =
        cpu_level ? buildBalancedFilledPlacement(profile,
                                                 in.config.hbmPages())
                  : buildStaticPlacement(StaticPolicy::Balanced,
                                         profile,
                                         in.config.hbmPages());
    in.traces = std::move(p.data.traces);
    in.engine = cpu_level;
    return in;
}

ReplayInput
staticReplay(const Context &ctx)
{
    return campaignReplay(ctx, false);
}

ReplayInput
migrationReplay(const Context &ctx)
{
    return campaignReplay(ctx, true);
}

/**
 * The tenant population: footprints 0.5x-1.25x the mean, write mixes
 * 10%-45%, quotas oversubscribing each shard ~2x, and rotating
 * priorities and reliability classes (as datacenter_service does),
 * with stream seeds drawn from the benchmark seed.
 */
std::vector<service::TenantSpec>
tenantSpecs(const Context &ctx)
{
    const auto pages = static_cast<std::uint64_t>(
        ctx.scale * static_cast<double>(servicePages));
    const auto requests = static_cast<std::uint64_t>(
        ctx.scale * static_cast<double>(serviceRequests));
    const std::uint64_t per_pages =
        std::max<std::uint64_t>(64, pages / serviceTenants);
    const std::uint64_t per_requests =
        std::max<std::uint64_t>(256, requests / serviceTenants);
    std::vector<service::TenantSpec> specs;
    for (std::uint64_t t = 1; t <= serviceTenants; ++t) {
        service::TenantSpec spec;
        spec.id = static_cast<std::uint32_t>(t);
        spec.footprintPages = per_pages * (2 + t % 4) / 4;
        spec.requests = per_requests;
        spec.cores = 4;
        spec.zipfSkew = 0.6 + 0.1 * static_cast<double>(t % 4);
        spec.writeFraction = 0.10 + 0.05 * static_cast<double>(t % 8);
        spec.seed = runner::taskSeed(ctx.seed, t);
        spec.hbmQuotaFraction =
            std::min(1.0, 2.0 * serviceShards / serviceTenants);
        spec.priority = static_cast<int>(t % 3);
        spec.relClass = static_cast<service::ReliabilityClass>(t % 3);
        specs.push_back(std::move(spec));
    }
    return specs;
}

service::ServiceConfig
serviceConfig()
{
    service::ServiceConfig config;
    config.shards = serviceShards;
    config.epochs = serviceEpochs;
    config.arbiter = service::ArbiterPolicy::ReliabilityWeighted;
    config.faultShard = 0;
    config.soloBaselines = true;
    std::string error;
    config.faultPlan = parseFaultPlan(serviceStorm, error);
    if (!error.empty())
        throw std::logic_error("fault storm plan: " + error);
    return config;
}

bool
finitePositive(double value)
{
    return std::isfinite(value) && value > 0;
}

Round
runServiceStorm(const Context &ctx)
{
    Tracer &tracer = *ctx.tracer;
    const SystemConfig system;
    Round round;

    // The operator configuration: ledger and timeline recording.
    eventlog::reset();
    health::reset();
    eventlog::setEnabled(true);
    health::setEnabled(true);
    health::setRules(health::defaultRules());

    // Setup is the operator's part: configure the service and admit
    // the tenants. The service builds every tenant stream and places
    // its pages inside run(), so those costs land in the passes.
    // Setup takes tens of microseconds, and on a shared host its time
    // depends on which CPU runs it (13 us on one, 20 us on another). So
    // each round also times it on throwaway services, a burst on every
    // pool worker, and setup_s is the median of all of them.
    const std::vector<service::TenantSpec> specs = tenantSpecs(ctx);
    const auto admitAll = [&](service::PlacementService &placement) {
        std::uint64_t rejected = 0;
        for (service::TenantSpec spec : specs)
            if (!placement.admit(std::move(spec)))
                ++rejected;
        return rejected;
    };
    std::vector<std::vector<double>> bursts(ctx.pool->jobs());
    ctx.pool->runIndexed(bursts.size(), [&](std::size_t b) {
        for (int i = 0; i < serviceSetupsPerTask; ++i) {
            const auto setup_start = Clock::now();
            service::PlacementService throwaway(system, serviceConfig());
            admitAll(throwaway);
            bursts[b].push_back(secondsSince(setup_start));
        }
    });
    std::vector<double> setups;
    for (const std::vector<double> &burst : bursts)
        setups.insert(setups.end(), burst.begin(), burst.end());

    const double cpu_start = processCpuSeconds();
    const auto start = Clock::now();
    const int workload_span = tracer.begin("workload");
    const int setup_span = tracer.begin("setup", workload_span);
    service::PlacementService placement(system, serviceConfig());
    std::uint64_t rejected = 0;
    {
        SpanScope span(tracer, "service.admit", setup_span);
        rejected = admitAll(placement);
    }
    tracer.end(setup_span);
    setups.push_back(secondsSince(start));
    round.setupS = median(setups);

    const auto run_start = Clock::now();
    const double run_cpu = processCpuSeconds();
    service::ServiceResult result;
    {
        SpanScope span(tracer, "service.run", workload_span, 0);
        result = placement.run(*ctx.pool);
    }
    tracer.end(workload_span);
    round.passesS = secondsSince(run_start);
    round.wallS = secondsSince(start);
    round.cpuS = processCpuSeconds() - cpu_start;
    // Shard tasks run inside PlacementService::run, out of the
    // driver's reach, so the pool's busy share is taken from CPU.
    round.busyFrac = (processCpuSeconds() - run_cpu) /
                     (round.passesS * ctx.pool->jobs());
    round.passSeconds.push_back(round.passesS);

    eventlog::setEnabled(false);
    health::setEnabled(false);
    const std::uint64_t records = eventlog::stats().recorded;
    std::uint64_t response_moves = 0;
    for (const eventlog::EventRecord &record : eventlog::collect()) {
        const std::string label = eventlog::runLabel(record.run);
        const bool storm = label.size() >= 6 &&
                           label.compare(label.size() - 6, 6,
                                         "/storm") == 0;
        if (storm && (record.kind == eventlog::EventKind::Evict ||
                      (record.kind == eventlog::EventKind::Retire &&
                       record.src != record.dst)))
            ++response_moves;
    }
    const std::uint64_t samples = health::sampleCount();
    const std::uint64_t alerts = health::alerts().size();
    eventlog::reset();
    health::reset();

    // Checks: every tenant admitted and served its whole stream, which
    // buildTenantTrace makes exactly spec.requests long.
    round.attempted = 1 + result.tenants.size();
    if (rejected != 0 || result.tenants.size() != specs.size()) {
        ++round.failed;
        round.failures.push_back("service: tenants rejected");
    }
    Digest digest;
    double ipc_sum = 0;
    std::uint64_t retired = 0;
    std::uint64_t faults = 0;
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
        const service::TenantResult &t = result.tenants[i];
        const auto spec = std::find_if(
            specs.begin(), specs.end(),
            [&](const service::TenantSpec &s) { return s.id == t.id; });
        const char *error = nullptr;
        if (spec == specs.end() || t.requests != spec->requests)
            error = "requests != trace length";
        else if (!finitePositive(t.ipc))
            error = "IPC not finite and positive";
        else if (!finitePositive(t.ser))
            error = "SER not finite and positive";
        else if (!finitePositive(t.slowdown))
            error = "slowdown not finite and positive";
        if (error != nullptr) {
            ++round.failed;
            round.failures.push_back(t.name + ": " + error);
        }
        digest.add(t.name);
        for (const std::uint64_t v :
             {std::uint64_t{t.id}, std::uint64_t{t.shard}, t.requests,
              t.instructions, t.makespan, t.soloMakespan,
              t.grantedPages, t.demandPages, t.quotaClips,
              t.movedPages, t.pagesRetired, std::uint64_t{t.degraded}})
            digest.add(v);
        for (const double v : {t.slowdown, t.ipc, t.meanHbmShare,
                               t.meanHbmPages, t.ser, t.meanAvf})
            digest.add(v);
        ipc_sum += t.ipc;
    }
    for (const service::ShardResult &s : result.shards) {
        for (const std::uint64_t v :
             {std::uint64_t{s.shard}, s.tenants, s.hbmCapacityPages,
              s.hbmUsedPages, s.faultsApplied, s.capacityLostPages,
              s.pagesRetired, std::uint64_t{s.degraded}})
            digest.add(v);
        retired += s.pagesRetired;
        faults += s.faultsApplied;
    }
    for (const std::uint64_t v :
         {result.arbitrationRounds, result.quotaClips,
          result.rebalanceMoves, result.totalRequests,
          result.totalInstructions, records, samples, alerts,
          response_moves})
        digest.add(v);
    for (const double v : {result.fairnessIndex, result.p99Slowdown})
        digest.add(v);
    for (const auto *series :
         {&result.fairnessByEpoch, &result.p99ByEpoch})
        for (const double v : *series)
            digest.add(v);
    if (!(result.fairnessIndex > 0 && result.fairnessIndex <= 1)) {
        ++round.failed;
        round.failures.push_back("service: fairness outside (0, 1]");
    }
    round.digest = digest.hex();
    // Every tenant stream is served once and replayed once alone.
    round.accesses = 2 * result.totalRequests;

    auto &c = round.counts;
    c["runner.passes"] = 1;
    c["service.arbitration_rounds"] =
        static_cast<double>(result.arbitrationRounds);
    c["service.quota_clips"] = static_cast<double>(result.quotaClips);
    c["service.rebalance_moves"] =
        static_cast<double>(result.rebalanceMoves);
    c["service.fairness"] = result.fairnessIndex;
    c["service.p99_slowdown"] = result.p99Slowdown;
    // The service places pages inside run(): its moves are
    // service.rebalance_moves, and no driver-built placement exists.
    c["placement.moves"] = 0;
    c["faults.injected"] = static_cast<double>(faults);
    c["faults.pages_retired"] = static_cast<double>(retired);
    c["faults.response_moves"] = static_cast<double>(response_moves);
    c["faults.retries"] = 0; // the service strikes have no retry loop
    c["eventlog.records"] = static_cast<double>(records);
    c["health.samples"] = static_cast<double>(samples);
    c["health.alerts"] = static_cast<double>(alerts);
    c["hma.ipc_mean"] =
        result.tenants.empty()
            ? 0.0
            : ipc_sum / static_cast<double>(result.tenants.size());
    return round;
}

/** Four tenants' streams (16 cores) on one shard's capacity. */
ReplayInput
serviceReplay(const Context &ctx)
{
    ReplayInput in;
    const std::vector<service::TenantSpec> specs = tenantSpecs(ctx);
    for (std::size_t t = 0; t < 4; ++t)
        for (CoreTrace &trace : service::buildTenantTrace(specs[t]))
            in.traces.push_back(std::move(trace));
    in.placement = buildStaticPlacement(
        StaticPolicy::PerfFocused,
        service::profileTenantTrace(in.traces),
        in.config.hbmPages() / serviceShards);
    return in;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"static_sweep", runStaticSweep, staticReplay},
        {"migration_mix", runMigrationMix, migrationReplay},
        {"service_storm", runServiceStorm, serviceReplay},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &workload : workloads())
        if (name == workload.name)
            return &workload;
    return nullptr;
}

} // namespace perfbench
