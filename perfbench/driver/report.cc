#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "prof/tsc.hh"

namespace perfbench
{

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (value >> (8 * i)) & 0xff;
        hash_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

void
Digest::add(std::string_view text)
{
    for (const char c : text) {
        hash_ ^= static_cast<unsigned char>(c);
        hash_ *= 0x100000001b3ULL;
    }
    add(std::uint64_t{text.size()});
}

std::string
Digest::hex() const
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) ||
               c == '_' || c == '.' || c == '-';
    });
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

namespace
{

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

HostStamp
hostStamp(unsigned pool_width, std::uint64_t seed)
{
    HostStamp stamp;
    stamp.cpuModel = ramp::prof::cpuModelName();
    stamp.nproc = std::max(1u, std::thread::hardware_concurrency());
    stamp.compiler = PERFBENCH_COMPILER;
    stamp.buildType = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    stamp.optimised = true;
#endif
    stamp.poolWidth = pool_width;
    stamp.seed = seed;
    stamp.heldOutSeed = heldOutSeed;
    return stamp;
}

std::string
HostStamp::json() const
{
    return "{\"cpu_model\": " + quoted(cpuModel) +
           ", \"nproc\": " + std::to_string(nproc) +
           ", \"compiler\": " + quoted(compiler) +
           ", \"build_type\": " + quoted(buildType) +
           ", \"optimised\": " + (optimised ? "true" : "false") +
           ", \"pool_width\": " + std::to_string(poolWidth) +
           ", \"seed\": " + std::to_string(seed) +
           ", \"held_out_seed\": " + std::to_string(heldOutSeed) + "}";
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &metric = metrics[i];
        // Non-finite values are not JSON; a missing measurement is 0.
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        out += (i == 0 ? "" : ", ") + quoted(metric.name) +
               ": {\"value\": " + value +
               ", \"unit\": " + quoted(metric.unit) + "}";
    }
    return out + "}}";
}

const std::vector<MetricSpec> &
endToEndSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"accesses_per_s", "1/s"},
        {"cpu_s", "s"},
        {"peak_rss_mb", "MB"},
        {"pass_ok_frac", "ratio"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"trace.gen_ns_per_req", "ns"},
        {"trace.requests", "count"},
        {"cache.ns_per_access", "ns"},
        {"cache.pass_ratio", "ratio"},
        {"placement.lookup_ns", "ns"},
        {"placement.profile_ns", "ns"},
        {"reliability.avf_ns", "ns"},
        {"reliability.fold_ns", "ns"},
        {"dram.ns_per_access", "ns"},
        {"migration.on_access_ns", "ns"},
        {"hma.ns_per_access", "ns"},
        {"hma.layer_sum_ns", "ns"},
        {"hma.residual_ns", "ns"},
        {"layers.replay_accesses", "count"},
        {"hma.profile_pass_s", "s"},
        {"placement.build_ms", "ms"},
        {"placement.moves", "count"},
        {"migration.interval_ms", "ms"},
        {"migration.intervals", "count"},
        {"migration.pages_moved", "count"},
        {"migration.epochs", "count"},
        {"region.pass_s", "s"},
        {"service.admit_ms", "ms"},
        {"service.run_s", "s"},
        {"service.arbitration_rounds", "count"},
        {"service.quota_clips", "count"},
        {"service.rebalance_moves", "count"},
        {"faults.injected", "count"},
        {"faults.pages_retired", "count"},
        {"faults.response_moves", "count"},
        {"faults.retries", "count"},
        {"eventlog.records", "count"},
        {"health.samples", "count"},
        {"health.alerts", "count"},
        {"runner.width", "count"},
        {"runner.passes", "count"},
        {"runner.pass_samples", "count"},
        {"runner.pass_s_p50", "s"},
        {"runner.pass_s_p90", "s"},
        {"runner.busy_frac", "ratio"},
        {"dram.row_hit_ratio", "ratio"},
        {"hma.hbm_access_frac", "ratio"},
        {"hma.ipc_mean", "instr/cycle"},
        {"service.fairness", "ratio"},
        {"service.p99_slowdown", "ratio"},
        {"tracing.overhead_s", "s"},
        {"tracing.spans", "count"},
    };
    return specs;
}

namespace
{

/** Emit `values` in spec order; a layer the workload lacks is 0. */
std::vector<Metric>
inSpecOrder(const std::vector<MetricSpec> &specs,
            const std::map<std::string, double> &values)
{
    std::vector<Metric> metrics;
    for (const MetricSpec &spec : specs) {
        const auto it = values.find(spec.name);
        metrics.push_back({spec.name,
                           it == values.end() ? 0.0 : it->second,
                           spec.unit});
    }
    return metrics;
}

template <typename Fn>
double
medianOver(const std::vector<Round> &rounds, Fn fn)
{
    std::vector<double> values;
    for (std::size_t i = 0; i < rounds.size(); ++i)
        values.push_back(fn(i));
    return median(values);
}

double
mean(const std::vector<double> &values)
{
    double total = 0;
    for (const double v : values)
        total += v;
    return values.empty() ? 0.0
                          : total / static_cast<double>(values.size());
}

} // namespace

std::vector<Metric>
endToEndMetrics(const std::vector<Round> &rounds)
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Round &round : rounds) {
        attempted += round.attempted;
        failed += round.failed;
    }
    std::map<std::string, double> v;
    v["wall_s"] = medianOver(rounds,
                             [&](std::size_t i) { return rounds[i].wallS; });
    v["setup_s"] = medianOver(
        rounds, [&](std::size_t i) { return rounds[i].setupS; });
    v["accesses_per_s"] = medianOver(rounds, [&](std::size_t i) {
        return static_cast<double>(rounds[i].accesses) /
               (rounds[i].wallS - rounds[i].setupS);
    });
    v["cpu_s"] =
        medianOver(rounds, [&](std::size_t i) { return rounds[i].cpuS; });
    v["peak_rss_mb"] = peakRssMb();
    v["pass_ok_frac"] =
        attempted == 0 ? 0.0
                       : static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted);
    return inSpecOrder(endToEndSpecs(), v);
}

std::vector<Metric>
perLayerMetrics(const std::vector<Round> &traced,
                const std::vector<std::vector<Span>> &spans,
                const std::vector<Round> &untraced,
                const LayerBudget &budget, unsigned width)
{
    // Simulated counts are identical in every round (the digest
    // check enforces it); take them from the first traced round.
    std::map<std::string, double> v = traced.front().counts;
    const auto per = [&](const char *span, const char *count,
                         double scale) {
        return medianOver(traced, [&](std::size_t i) {
            const auto it = traced[i].counts.find(count);
            const double n = it == traced[i].counts.end() ? 0.0
                                                          : it->second;
            return n > 0 ? totalSeconds(spans[i], span) * scale / n
                         : 0.0;
        });
    };
    const auto total = [&](const char *span, double scale) {
        return medianOver(traced, [&](std::size_t i) {
            return totalSeconds(spans[i], span) * scale;
        });
    };
    const auto meanOf = [&](const char *span, double scale) {
        return medianOver(traced, [&](std::size_t i) {
            return mean(durations(spans[i], span)) * scale;
        });
    };

    v["trace.gen_ns_per_req"] =
        per("trace.generate", "trace.requests", 1e9);
    v["cache.ns_per_access"] = per("cache.filter", "cache.accesses", 1e9);
    v["hma.profile_pass_s"] = total("hma.ddr_only", 1);
    v["placement.build_ms"] = total("placement.build", 1e3);
    v["migration.interval_ms"] = meanOf("migration.interval", 1e3);
    v["migration.intervals"] = static_cast<double>(
        durations(spans.front(), "migration.interval").size());
    v["region.pass_s"] = meanOf("region.pass", 1);
    v["service.admit_ms"] = total("service.admit", 1e3);
    v["service.run_s"] = total("service.run", 1);

    v["placement.lookup_ns"] = budget.lookupNs;
    v["placement.profile_ns"] = budget.profileNs;
    v["reliability.avf_ns"] = budget.avfNs;
    v["reliability.fold_ns"] = budget.foldNs;
    v["dram.ns_per_access"] = budget.dramNs;
    v["migration.on_access_ns"] = budget.engineNs;
    v["hma.ns_per_access"] = budget.hmaNs;
    v["hma.layer_sum_ns"] = budget.sumNs;
    v["hma.residual_ns"] = budget.residualNs;
    v["layers.replay_accesses"] = static_cast<double>(budget.accesses);
    // The service keeps its per-slice results; its row-hit and HBM
    // shares come from the replayed tenant streams instead.
    v.try_emplace("dram.row_hit_ratio", budget.rowHitRatio);
    v.try_emplace("hma.hbm_access_frac", budget.hbmAccessFrac);

    v["runner.width"] = width;
    // Pass times pooled over the traced rounds, so the p90 has more
    // samples beyond it; runner.pass_samples states the count.
    std::vector<double> pass_seconds;
    for (const Round &round : traced)
        pass_seconds.insert(pass_seconds.end(), round.passSeconds.begin(),
                            round.passSeconds.end());
    v["runner.pass_samples"] = static_cast<double>(pass_seconds.size());
    v["runner.pass_s_p50"] = percentile(pass_seconds, 50);
    v["runner.pass_s_p90"] = percentile(pass_seconds, 90);
    v["runner.busy_frac"] = medianOver(
        traced, [&](std::size_t i) { return traced[i].busyFrac; });

    v["tracing.overhead_s"] =
        medianOver(traced, [&](std::size_t i) { return traced[i].wallS; }) -
        medianOver(untraced,
                   [&](std::size_t i) { return untraced[i].wallS; });
    v["tracing.spans"] = static_cast<double>(spans.front().size());
    return inSpecOrder(perLayerSpecs(), v);
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    return static_cast<bool>(out);
}

} // namespace perfbench
