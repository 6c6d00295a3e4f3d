/**
 * @file
 * The benchmark's own checks (ramp_perfbench --selftest), at a
 * reduced input size:
 *
 *  - the same seed gives the same digest at pool width 1 and at the
 *    driver's width, min(nproc, 4), and a different seed a different
 *    digest;
 *  - every pass passes its checks, with the stated pass counts;
 *  - the campaign passes equal the library's one-call helpers
 *    (runHotFraction, runStaticPolicy, runDynamic);
 *  - metric names match [A-Za-z0-9_.-]+ and are unique;
 *  - the nearest-rank percentile and the median follow their rule;
 *  - span self time never exceeds duration;
 *  - the layer sum plus the residual is hma.ns_per_access.
 */

#include <cmath>
#include <iostream>
#include <set>
#include <string>

#include "hma/experiment.hh"
#include "layers.hh"
#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace ramp;

namespace
{

constexpr double selfTestScale = 0.05;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

Round
runOnce(const Workload &workload, std::uint64_t seed, unsigned width,
        Tracer &tracer)
{
    runner::ThreadPool pool(width);
    Context ctx;
    ctx.seed = seed;
    ctx.scale = selfTestScale;
    ctx.pool = &pool;
    ctx.tracer = &tracer;
    return workload.run(ctx);
}

void
checkWorkloads(unsigned width)
{
    const std::size_t passes[] = {51, 12, 1};
    const std::size_t attempted[] = {54, 15, 65};
    for (std::size_t w = 0; w < workloads().size(); ++w) {
        const Workload &workload = workloads()[w];
        const std::string name = workload.name;
        Tracer off;
        Tracer on(true);
        const Round serial = runOnce(workload, 7, 1, off);
        const Round wide = runOnce(workload, 7, width, on);
        const Round other = runOnce(workload, 8, width, off);
        expect(serial.digest == wide.digest,
               name + ": same digest at width 1 and " +
                   std::to_string(width));
        expect(serial.digest != other.digest,
               name + ": another seed changes the digest");
        expect(serial.failed == 0 && wide.failed == 0 &&
                   other.failed == 0,
               name + ": no pass fails its checks");
        expect(wide.passSeconds.size() == passes[w] &&
                   wide.attempted == attempted[w],
               name + ": " + std::to_string(passes[w]) + " passes, " +
                   std::to_string(attempted[w]) + " checked");
        const std::vector<Span> spans = on.spans();
        const std::vector<double> self = selfTimes(spans);
        bool bounded = !spans.empty();
        for (std::size_t i = 0; i < spans.size(); ++i)
            bounded = bounded && self[i] >= 0 &&
                      self[i] <= spans[i].seconds() + 1e-12;
        expect(bounded, name + ": span self time within duration");
    }
}

void
checkHelpersMatch()
{
    const SystemConfig config;
    GeneratorOptions options;
    options.seed = 11;
    options.traceScale = 0.01;
    const WorkloadData data =
        prepareWorkload(homogeneousWorkload("astar"), options);
    const PageProfile profile = runDdrOnly(config, data).profile;
    const std::uint64_t hbm = config.hbmPages();
    const auto run = [&](PlacementMap map, MigrationEngine *engine,
                         const char *label) {
        HmaSystem system(config);
        SimResult r = system.run(data.traces, std::move(map), engine);
        r.label = label;
        return simDigest(r);
    };

    SimResult helper = runHotFraction(config, data, profile, 0.3);
    expect(simDigest(helper) ==
               run(buildHotFractionPlacement(profile, hbm, 0.3), nullptr,
                   "hot-fraction"),
           "hot-fraction pass equals runHotFraction");
    helper = runStaticPolicy(config, data, StaticPolicy::Wr2Ratio, profile);
    expect(simDigest(helper) ==
               run(buildStaticPlacement(StaticPolicy::Wr2Ratio, profile,
                                        hbm),
                   nullptr, helper.label.c_str()),
           "static pass equals runStaticPolicy");
    helper = runDynamic(config, data, DynamicScheme::CrossCounter, profile);
    const auto engine = makeEngine(DynamicScheme::CrossCounter, config);
    expect(simDigest(helper) ==
               run(buildBalancedFilledPlacement(profile, hbm),
                   engine.get(), helper.label.c_str()),
           "dynamic pass equals runDynamic");
}

void
checkMetrics()
{
    std::set<std::string> names;
    bool valid = true;
    for (const auto *specs : {&endToEndSpecs(), &perLayerSpecs()})
        for (const MetricSpec &spec : *specs)
            valid = valid && validMetricName(spec.name) &&
                    names.insert(spec.name).second;
    expect(valid, "metric names match [A-Za-z0-9_.-]+ and are unique");
    expect(!validMetricName("bad name") && !validMetricName(".x") &&
               !validMetricName(""),
           "metric name rule rejects spaces, leading dots, empty");

    const std::vector<double> ten = {5, 1, 4, 2, 3, 6, 7, 8, 9, 10};
    expect(percentile(ten, 50) == 5 && percentile(ten, 90) == 9 &&
               percentile(ten, 100) == 10 && percentile(ten, 1) == 1 &&
               percentile({3.5}, 90) == 3.5 && percentile({}, 50) == 0,
           "nearest-rank percentile");
    expect(median(ten) == 5.5 && median({2, 9, 4}) == 4,
           "median of even and odd samples");
}

void
checkLayerIdentity(unsigned width)
{
    runner::ThreadPool pool(width);
    Tracer off;
    Context ctx;
    ctx.seed = 5;
    ctx.scale = selfTestScale;
    ctx.pool = &pool;
    ctx.tracer = &off;
    for (const Workload &workload : workloads()) {
        const LayerBudget b = measureLayers(workload.replay(ctx), 1);
        const double sum = b.lookupNs + b.profileNs + b.avfNs + b.foldNs +
                           b.dramNs + b.engineNs;
        const bool engine = std::string(workload.name) == "migration_mix";
        expect(b.accesses > 0 && b.hmaNs > 0 && b.lookupNs > 0 &&
                   b.profileNs > 0 && b.avfNs > 0 && b.foldNs > 0 &&
                   b.dramNs > 0 && (b.engineNs > 0) == engine,
               std::string(workload.name) + ": every layer measured");
        expect(sum == b.sumNs &&
                   std::fabs(b.sumNs + b.residualNs - b.hmaNs) <=
                       1e-9 * b.hmaNs,
               std::string(workload.name) +
                   ": layer sum + residual == hma.ns_per_access");
    }
}

} // namespace

int
runSelfTest(unsigned width)
{
    checkMetrics();
    checkHelpersMatch();
    checkWorkloads(width);
    checkLayerIdentity(width);
    std::cout << (failures == 0 ? "selftest passed"
                                : "selftest FAILED: " +
                                      std::to_string(failures))
              << "\n";
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
