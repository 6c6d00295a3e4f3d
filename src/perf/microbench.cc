#include "perf/microbench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>

#include "common/logging.hh"
#include "common/stats.hh"
#include "prof/prof.hh"

namespace ramp::perf
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Coefficient of variation of a window of iteration times. */
double
windowCv(const std::deque<double> &window)
{
    RunningStat stat;
    for (const double seconds : window)
        stat.add(seconds);
    const double mean = stat.mean();
    return mean > 0 ? stat.stddev() / mean : 0.0;
}

} // namespace

void
Microbench::add(std::string name, std::string unit,
                std::function<std::uint64_t()> fn)
{
    for (const Case &c : cases_)
        if (c.name == name)
            ramp_panic("microbench case '", name,
                       "' registered twice");
    cases_.push_back(
        {std::move(name), std::move(unit), std::move(fn)});
}

std::vector<std::string>
Microbench::names() const
{
    std::vector<std::string> out;
    out.reserve(cases_.size());
    for (const Case &c : cases_)
        out.push_back(c.name);
    return out;
}

std::vector<BenchResult>
Microbench::run(const BenchOptions &options,
                const std::vector<std::string> &only) const
{
    std::vector<BenchResult> results;
    for (const Case &c : cases_) {
        if (!only.empty() &&
            std::find(only.begin(), only.end(), c.name) ==
                only.end())
            continue;

        // Every fn() invocation (warmup and timed) runs under a
        // PMU-sampled "kernel.<case>" phase, so profiles attribute
        // cycles, IPC, and LLC misses per hot kernel.
        const char *prof_name =
            prof::internName("kernel." + c.name);
        BenchResult result;
        result.name = c.name;
        result.unit = c.unit;

        const Clock::time_point budget_start = Clock::now();
        // Leave at least half the budget for the timed phase even
        // when the kernel never stabilises.
        const double warmup_budget = options.maxSecondsPerCase / 2;

        std::deque<double> window;
        while (result.warmupIterations <
               std::max<std::size_t>(options.maxWarmupIterations,
                                     1)) {
            const Clock::time_point start = Clock::now();
            {
                RAMP_PROF_SCOPE_PMU(kernel_prof, prof_name);
                result.itemsPerIteration = c.fn();
            }
            window.push_back(secondsSince(start));
            ++result.warmupIterations;
            if (window.size() > options.warmupWindow)
                window.pop_front();
            if (window.size() == options.warmupWindow &&
                windowCv(window) < options.warmupCv)
                break;
            if (secondsSince(budget_start) > warmup_budget)
                break;
        }

        RunningStat stat;
        for (std::size_t i = 0; i < options.iterations; ++i) {
            const Clock::time_point start = Clock::now();
            {
                RAMP_PROF_SCOPE_PMU(kernel_prof, prof_name);
                result.itemsPerIteration = c.fn();
            }
            stat.add(secondsSince(start));
            if (secondsSince(budget_start) >
                    options.maxSecondsPerCase &&
                stat.count() >= 3)
                break;
        }

        result.iterations = stat.count();
        result.meanSeconds = stat.mean();
        result.stddevSeconds = stat.stddev();
        result.ci95Seconds =
            stat.count() > 1
                ? 1.96 * stat.stddev() /
                      std::sqrt(static_cast<double>(stat.count()))
                : 0.0;
        result.minSeconds = stat.min();
        result.maxSeconds = stat.max();
        result.itemsPerSecond =
            result.minSeconds > 0
                ? static_cast<double>(result.itemsPerIteration) /
                      result.minSeconds
                : 0.0;
        results.push_back(std::move(result));
    }
    return results;
}

} // namespace ramp::perf
