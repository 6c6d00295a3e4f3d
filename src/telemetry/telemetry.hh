/**
 * @file
 * Telemetry subsystem front door: runtime toggle and the
 * instrumentation macro.
 *
 * Instrumentation sites use RAMP_TELEM so that telemetry disabled
 * at runtime costs exactly one relaxed atomic load and branch.
 *
 * Everything is process-global and thread-safe: metrics() is the
 * shared registry (registry.hh). Chrome trace events come from the
 * profiler's scopes (prof/prof.hh).
 */

#ifndef RAMP_TELEMETRY_TELEMETRY_HH
#define RAMP_TELEMETRY_TELEMETRY_HH

#include "common/enable.hh"
#include "common/json.hh"
#include "telemetry/histogram.hh"
#include "telemetry/registry.hh"

namespace ramp::telemetry
{

/** True when metric sites should record (default off). */
inline bool
enabled()
{
    return enable::any(enable::metrics);
}

/** Toggle recording at runtime (the harness flips this on). */
inline void
setEnabled(bool on)
{
    enable::set(enable::metrics, on);
}

} // namespace ramp::telemetry

/**
 * Run one or more statements only when telemetry is enabled. The
 * statements typically add to cached metric handles:
 *
 *   static auto &hits = ramp::telemetry::metrics().counter("x.hits");
 *   RAMP_TELEM(hits.add(1));
 */
#define RAMP_TELEM(...) \
    do { \
        if (::ramp::telemetry::enabled()) { \
            __VA_ARGS__; \
        } \
    } while (0)

#endif // RAMP_TELEMETRY_TELEMETRY_HH
