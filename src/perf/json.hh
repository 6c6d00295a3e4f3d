/**
 * @file
 * Minimal JSON value parser for the repo's own artifacts.
 *
 * The analyzers (ramp_explain, ramp_health, ramp_prof) re-read the
 * documents the harness writes, and the tests validate every emitted
 * document by parsing it back, so the repo needs a reader to match
 * its writers.
 * This is a small recursive-descent parser over the full JSON
 * grammar (objects, arrays, strings with escapes, numbers, bools,
 * null) — sufficient for machine-written documents; it does not aim
 * to be a general-purpose library (no streaming). \uXXXX escapes
 * decode to UTF-8, including supplementary-plane surrogate pairs.
 */

#ifndef RAMP_PERF_JSON_HH
#define RAMP_PERF_JSON_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ramp::perf
{

/** One parsed JSON value (a tree). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }

    /** Member of an object, or nullptr (also when not an object). */
    const JsonValue *find(const std::string &key) const;

    /** Member's number, or `fallback` when absent/not a number. */
    double numberOr(const std::string &key, double fallback) const;

    /** Member's string, or `fallback` when absent/not a string. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Member's bool, or `fallback` when absent/not a bool. */
    bool boolOr(const std::string &key, bool fallback) const;
};

/**
 * Parse a complete JSON document. Returns false (and fills `error`
 * with a position-annotated message) on malformed input or trailing
 * garbage.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string &error);

/** Parse a file; false when unreadable or malformed. */
bool parseJsonFile(const std::string &path, JsonValue &out,
                   std::string &error);

} // namespace ramp::perf

#endif // RAMP_PERF_JSON_HH
