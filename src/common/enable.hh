/**
 * @file
 * The one enable word of every observability recorder.
 *
 * Each recorder owns one bit: metrics (telemetry registry), trace
 * (Chrome events from profiler scopes), ledger (eventlog), timeline
 * (health) and profile (phase trees). Instrumentation sites test
 * their bit with one relaxed load and a branch; the word is an
 * inline variable, so the test is never an out-of-line call. All
 * bits default off; the harness sets them from its output options.
 */

#ifndef RAMP_COMMON_ENABLE_HH
#define RAMP_COMMON_ENABLE_HH

#include <atomic>

namespace ramp::enable
{

inline constexpr unsigned metrics = 1u << 0;
inline constexpr unsigned trace = 1u << 1;
inline constexpr unsigned ledger = 1u << 2;
inline constexpr unsigned timeline = 1u << 3;
inline constexpr unsigned profile = 1u << 4;

/** The recorder bits; flip them through set() only. */
inline std::atomic<unsigned> word{0};

/** The subset of `bits` that is on. */
inline unsigned
which(unsigned bits)
{
    return word.load(std::memory_order_relaxed) & bits;
}

/** True when any of `bits` is on. */
inline bool
any(unsigned bits)
{
    return which(bits) != 0;
}

/** Turn `bits` on or off, leaving the other recorders alone. */
inline void
set(unsigned bits, bool on)
{
    if (on)
        word.fetch_or(bits, std::memory_order_relaxed);
    else
        word.fetch_and(~bits, std::memory_order_relaxed);
}

} // namespace ramp::enable

#endif // RAMP_COMMON_ENABLE_HH
