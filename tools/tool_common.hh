/**
 * @file
 * Helpers shared by the artifact analyzers (ramp_explain,
 * ramp_health): count-flag parsing, integral JSON members, and
 * table number cells.
 */

#ifndef RAMP_TOOLS_TOOL_COMMON_HH
#define RAMP_TOOLS_TOOL_COMMON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "perf/json.hh"

namespace ramp::tools
{

/** A non-negative integer flag value; exits 2 on anything else. */
inline std::uint64_t
parseCount(const char *tool, const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
        std::fprintf(stderr,
                     "%s: %s needs a non-negative integer, got '%s'\n",
                     tool, flag, text);
        std::exit(2);
    }
    return value;
}

/** A member's integral value (handles noPage-sized ids exactly). */
inline std::uint64_t
idOr(const perf::JsonValue &object, const std::string &key,
     std::uint64_t fallback)
{
    const perf::JsonValue *member = object.find(key);
    if (member == nullptr || !member->isNumber())
        return fallback;
    // Ids are small in practice (double-exact); the sentinel only
    // appears for absent fields, which the writers omit.
    return static_cast<std::uint64_t>(member->number);
}

/** A table cell: `precision` significant digits, "-" if non-finite. */
inline std::string
num(double value, int precision)
{
    if (!std::isfinite(value))
        return "-";
    std::ostringstream out;
    out.precision(precision);
    out << value;
    return out.str();
}

} // namespace ramp::tools

#endif // RAMP_TOOLS_TOOL_COMMON_HH
