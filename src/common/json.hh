/**
 * @file
 * The JSON string and number renderers shared by every emitter
 * (metrics, traces, profiles, the ledger, the timeline, the report
 * and the checkpoint journal).
 */

#ifndef RAMP_COMMON_JSON_HH
#define RAMP_COMMON_JSON_HH

#include <string>
#include <string_view>

namespace ramp
{

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view text);

/**
 * Finite JSON number rendering. JSON has no NaN/Inf tokens, and
 * non-finite values are reachable (RunningStat::min()/max() and
 * FixedHistogram::percentile() are NaN when empty), so they render
 * as `null` — "not measured" — instead of masquerading as 0.
 */
std::string jsonNumber(double value);

} // namespace ramp

#endif // RAMP_COMMON_JSON_HH
