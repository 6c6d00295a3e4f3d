/**
 * @file
 * Cycle source for the hot-path profiler.
 *
 * On x86-64 readCycles() is one RDTSC (the modern invariant TSC
 * ticks at a constant rate regardless of frequency scaling, so
 * deltas are meaningful wall-cycle counts). Elsewhere it falls back
 * to steady_clock nanoseconds, which keeps every downstream formula
 * valid — "cycles" just means nanoseconds and tscHz() reports 1e9.
 *
 * tscHz() calibrates the counter against steady_clock once, on
 * first use, over a ~20 ms window; the result is cached for the
 * process lifetime and stamped into profiles so cycle counts stay
 * attributable to the hardware that produced them.
 */

#ifndef RAMP_PROF_TSC_HH
#define RAMP_PROF_TSC_HH

#include <chrono>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace ramp::prof
{

namespace detail
{

using CycleSource = std::uint64_t (*)();

/**
 * Install a deterministic cycle source (tests); nullptr restores
 * the hardware counter. Takes effect for all threads.
 */
void setCycleSourceForTest(CycleSource source);

/** The installed test source, or nullptr (hot path peeks at this). */
CycleSource cycleSourceForTest();

} // namespace detail

/** steady_clock nanoseconds (the non-x86 "cycle" unit). */
inline std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Raw cycle counter (RDTSC, or steady_clock ns off x86-64). */
inline std::uint64_t
readTsc()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#else
    return steadyNanos();
#endif
}

/**
 * The profiler's cycle read: the test source when one is installed,
 * readTsc() otherwise.
 */
inline std::uint64_t
readCycles()
{
    if (detail::CycleSource source = detail::cycleSourceForTest())
        return source();
    return readTsc();
}

/**
 * Measured counter frequency in Hz (calibrated once, cached).
 * Converts profile cycle counts into seconds.
 */
double tscHz();

/**
 * The CPU "model name" line from /proc/cpuinfo, or "unknown" when
 * the file is unreadable (non-Linux, locked-down container).
 */
std::string cpuModelName();

} // namespace ramp::prof

#endif // RAMP_PROF_TSC_HH
