/**
 * @file
 * Telemetry subsystem front door: runtime toggle, instrumentation
 * macros, and log capture.
 *
 * Instrumentation sites use the macros below so that telemetry
 * disabled at runtime costs exactly one relaxed atomic load and
 * branch.
 *
 * Everything is process-global and thread-safe: metrics() is the
 * shared registry (registry.hh), spans and instants land in
 * per-thread buffers (trace.hh), and captureLogEvents() tees
 * warn()/inform() lines into the trace as instant events without
 * touching their stderr output.
 */

#ifndef RAMP_TELEMETRY_TELEMETRY_HH
#define RAMP_TELEMETRY_TELEMETRY_HH

#include <string>
#include <string_view>

#include "telemetry/histogram.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"

namespace ramp::telemetry
{

/** True when instrumentation sites should record (default off). */
bool enabled();

/** Toggle recording at runtime (the harness flips this on). */
void setEnabled(bool on);

/**
 * Tee warn()/inform() lines into the trace buffer as instant
 * events (category "log") on top of the current log sink.
 * Idempotent; stderr output is unchanged.
 */
void captureLogEvents();

/** Reset every metric value and drop all trace events (tests). */
void resetAll();

/** @{ @name Small JSON helpers shared by the emitters */
/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view text);

/**
 * Finite JSON number rendering. JSON has no NaN/Inf tokens, and
 * non-finite values are reachable (RunningStat::min()/max() and
 * FixedHistogram::percentile() are NaN when empty), so they render
 * as `null` — "not measured" — instead of masquerading as 0.
 */
std::string jsonNumber(double value);
/** @} */

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

#define RAMP_TELEM_CONCAT2(a, b) a##b
#define RAMP_TELEM_CONCAT(a, b) RAMP_TELEM_CONCAT2(a, b)

/**
 * Scoped trace span covering the rest of the enclosing block:
 * RAMP_TELEM_SPAN(span, "hma.run", "sim"); the named variable can
 * be ignored or used to keep the span alive explicitly. Inert (one
 * branch) while telemetry is disabled.
 */
#define RAMP_TELEM_SPAN(var, ...) \
    ::ramp::telemetry::ScopedSpan var(__VA_ARGS__)

#endif // RAMP_TELEMETRY_TELEMETRY_HH
