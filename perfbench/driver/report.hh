/**
 * @file
 * Result plumbing of the benchmark driver: the simulated-statistics
 * digest, order statistics, host resource readings, the host stamp,
 * and the one-line JSON result.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

/**
 * FNV-1a over simulated statistics. Doubles are hashed by bit
 * pattern, so two runs share a digest only when every statistic is
 * bit-identical.
 */
class Digest
{
  public:
    void add(std::uint64_t value);
    void add(double value);
    void add(std::string_view text);

    std::uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Median (mean of the middle two for an even count); 0 if empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile: the ceil(p/100 * n)-th smallest value
 * (1-based), for p in (0, 100]; 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

/** True when `name` matches [A-Za-z0-9_.-]+ and starts alnum. */
bool validMetricName(std::string_view name);

/** Process user+sys CPU seconds over every thread so far. */
double processCpuSeconds();

/** Peak resident set size of the process, in MB. */
double peakRssMb();

/** Where and how the numbers were taken. */
struct HostStamp
{
    std::string cpuModel;
    unsigned nproc = 0;
    std::string compiler;
    std::string buildType;
    bool optimised = false;
    unsigned poolWidth = 0;
    std::uint64_t seed = 0;
    std::uint64_t heldOutSeed = 0;

    std::string json() const;
};

HostStamp hostStamp(unsigned pool_width, std::uint64_t seed);

/** The seed tuning never uses; later changes confirm claims on it. */
inline constexpr std::uint64_t heldOutSeed = 271828;

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** A metric's name and unit, as BENCHMARK.json lists it. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The untraced run's metrics (host time, every workload). */
const std::vector<MetricSpec> &endToEndSpecs();

/** The traced run's metrics (0 where a layer is absent). */
const std::vector<MetricSpec> &perLayerSpecs();

/** End-to-end metrics: medians over the untraced rounds. */
std::vector<Metric> endToEndMetrics(const std::vector<Round> &rounds);

/**
 * Per-layer metrics: span-derived host times (medians over the
 * traced rounds), the layer budget, the simulated counts, and the
 * tracing overhead against the interleaved untraced rounds.
 */
std::vector<Metric>
perLayerMetrics(const std::vector<Round> &traced,
                const std::vector<std::vector<Span>> &spans,
                const std::vector<Round> &untraced,
                const LayerBudget &budget, unsigned width);

/** The driver's final stdout line. */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

/** Write `text` to `path`; false on any I/O error. */
bool writeFile(const std::string &path, const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
