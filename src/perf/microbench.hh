/**
 * @file
 * Steady-state microbenchmark framework for the simulator's hot
 * kernels.
 *
 * Each case is a callable running one iteration of a kernel and
 * returning how many items (accesses, trials, tasks...) it
 * processed. run() measures every case the same way: a warmup phase
 * that iterates until the iteration time stabilises (coefficient of
 * variation of a sliding window under a threshold) or the warmup
 * budget runs out, then a fixed number of timed iterations folded
 * into a RunningStat. The report quotes mean, stddev, a 95%%
 * confidence half-width, and the min-of-N — the usual
 * noise-resistant estimate of the kernel's true cost — plus the
 * throughput derived from it. region_scale prints its
 * tracking-throughput table from these results.
 */

#ifndef RAMP_PERF_MICROBENCH_HH
#define RAMP_PERF_MICROBENCH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ramp::perf
{

/** Measurement knobs; the defaults suit sub-second kernels. */
struct BenchOptions
{
    /** Timed iterations after warmup. */
    std::size_t iterations = 10;

    /** Warmup iteration cap (stabilisation may stop it earlier). */
    std::size_t maxWarmupIterations = 24;

    /** Sliding-window size the stabilisation check looks at. */
    std::size_t warmupWindow = 4;

    /**
     * Warmup ends once the window's coefficient of variation
     * (stddev/mean) drops below this.
     */
    double warmupCv = 0.05;

    /**
     * Wall-clock budget per case, warmup included; measurement
     * stops early (with fewer iterations) when exhausted.
     */
    double maxSecondsPerCase = 10.0;
};

/** One measured case of the suite. */
struct BenchResult
{
    /** Case name (stable across runs). */
    std::string name;

    /** What one item is ("accesses", "trials", "tasks"...). */
    std::string unit;

    /** Items processed by one iteration. */
    std::uint64_t itemsPerIteration = 0;

    /** Warmup iterations actually run. */
    std::size_t warmupIterations = 0;

    /** Timed iterations folded into the statistics. */
    std::size_t iterations = 0;

    /** @{ @name Per-iteration wall time, in seconds */
    double meanSeconds = 0;
    double stddevSeconds = 0;

    /** 95%% confidence half-width of the mean (1.96 s / sqrt n). */
    double ci95Seconds = 0;

    /** Fastest iteration: the noise-floor estimate of true cost. */
    double minSeconds = 0;
    double maxSeconds = 0;
    /** @} */

    /** Throughput at the min-of-N iteration time, items/second. */
    double itemsPerSecond = 0;
};

/** An ordered suite of kernel benchmarks. */
class Microbench
{
  public:
    /**
     * Register a case. fn runs one iteration and returns the items
     * it processed (used for the throughput quote; return 1 for
     * pure-latency cases).
     */
    void add(std::string name, std::string unit,
             std::function<std::uint64_t()> fn);

    /** Registered case names, in registration order. */
    std::vector<std::string> names() const;

    /**
     * Measure every case (or only those whose name is in `only`,
     * when non-empty), in registration order. Each case runs under
     * a trace span, so --trace-out shows the suite's timeline.
     */
    std::vector<BenchResult>
    run(const BenchOptions &options = {},
        const std::vector<std::string> &only = {}) const;

  private:
    struct Case
    {
        std::string name;
        std::string unit;
        std::function<std::uint64_t()> fn;
    };

    std::vector<Case> cases_;
};

} // namespace ramp::perf

#endif // RAMP_PERF_MICROBENCH_HH
