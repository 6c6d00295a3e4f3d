#include "runner/report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/stats.hh"
#include "common/table.hh"
#include "runner/checkpoint.hh"

namespace ramp::runner
{

double
meanRatio(std::span<const double> ratios)
{
    return mean(ratios);
}

double
hitRate(std::uint64_t hits, std::uint64_t misses)
{
    const std::uint64_t total = hits + misses;
    // NaN, not 0: an idle counter pair is unmeasured, and the JSON
    // emitters render NaN as null instead of a fake perfect miss.
    return total == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
}

double
accessShare(std::uint64_t part, std::uint64_t rest)
{
    const std::uint64_t total = part + rest;
    return total == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : static_cast<double>(part) /
                            static_cast<double>(total);
}

double
RatioColumn::mean() const
{
    return meanRatio(values_);
}

std::string
RatioColumn::averageCell(int precision) const
{
    if (values_.empty())
        return "-";
    return TextTable::ratio(mean(), precision);
}

std::string
RatioColumn::lossCell(int precision) const
{
    if (values_.empty())
        return "-";
    return TextTable::percent(1.0 - mean(), precision);
}

namespace
{

/** Positive double for --pass-timeout; throws PassError(Usage). */
double
parseTimeout(const std::string &text)
{
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(parsed > 0))
        throw PassError(PassErrorCode::Usage,
                        "--pass-timeout needs a positive number of "
                        "seconds, got '" +
                            text + "'");
    return parsed;
}

} // namespace

RunnerOptions
RunnerOptions::parse(int argc, char **argv)
{
    RunnerOptions options;
    if (const char *env = std::getenv("RAMP_JSON"))
        options.jsonPath = env;
    if (const char *env = std::getenv("RAMP_METRICS_OUT"))
        options.metricsPath = env;
    if (const char *env = std::getenv("RAMP_TRACE_OUT"))
        options.tracePath = env;
    if (const char *env = std::getenv("RAMP_EVENTS_OUT"))
        options.eventsPath = env;
    if (const char *env = std::getenv("RAMP_TIMELINE_OUT"))
        options.timelinePath = env;
    if (const char *env = std::getenv("RAMP_PROF_OUT"))
        options.profilePath = env;
    if (const char *env = std::getenv("RAMP_HEALTH_RULES"))
        options.healthRules = env;
    if (const char *env = std::getenv("RAMP_CACHE_DIR"))
        options.cacheDir = env;
    if (const char *env = std::getenv("RAMP_CHECKPOINT"))
        options.checkpointDir = env;
    if (const char *env = std::getenv("RAMP_PASS_TIMEOUT"))
        options.passTimeout = parseTimeout(env);
    // RAMP_JOBS is honoured by ThreadPool::defaultJobs(); jobs = 0
    // defers to it.

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                throw PassError(PassErrorCode::Usage,
                                std::string(flag) +
                                    " needs a value");
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j") {
            const std::string text = value("--jobs");
            char *end = nullptr;
            const long parsed =
                std::strtol(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0' || parsed < 1)
                throw PassError(PassErrorCode::Usage,
                                "--jobs needs a positive integer, "
                                "got '" +
                                    text + "'");
            options.jobs = static_cast<unsigned>(parsed);
        } else if (arg == "--json") {
            options.jsonPath = value("--json");
        } else if (arg == "--metrics-out") {
            options.metricsPath = value("--metrics-out");
        } else if (arg == "--trace-out") {
            options.tracePath = value("--trace-out");
        } else if (arg == "--events-out") {
            options.eventsPath = value("--events-out");
        } else if (arg == "--timeline-out") {
            options.timelinePath = value("--timeline-out");
        } else if (arg == "--profile-out") {
            options.profilePath = value("--profile-out");
        } else if (arg == "--health-rules") {
            options.healthRules = value("--health-rules");
        } else if (arg == "--cache-dir") {
            options.cacheDir = value("--cache-dir");
        } else if (arg == "--checkpoint") {
            options.checkpointDir = value("--checkpoint");
        } else if (arg == "--pass-timeout") {
            options.passTimeout =
                parseTimeout(value("--pass-timeout"));
        } else {
            options.positional.push_back(arg);
        }
    }
    return options;
}

const char *
RunnerOptions::flagsHelp()
{
    return "  --jobs N        parallel simulation passes "
           "(default: all cores; env RAMP_JOBS)\n"
           "  --json PATH     write machine-readable results "
           "(env RAMP_JSON)\n"
           "  --metrics-out PATH  write a telemetry metrics "
           "snapshot (env RAMP_METRICS_OUT)\n"
           "  --trace-out PATH  write a Chrome trace-event file "
           "(env RAMP_TRACE_OUT)\n"
           "  --events-out PATH  write the decision ledger as "
           "JSONL (env RAMP_EVENTS_OUT)\n"
           "  --timeline-out PATH  write the epoch health timeline "
           "as JSONL (env RAMP_TIMELINE_OUT)\n"
           "  --profile-out PATH  write a ramp-profile-v1 cycle "
           "profile (+PATH.folded flamegraph stacks; env "
           "RAMP_PROF_OUT)\n"
           "  --health-rules R  SLO rules evaluated per epoch, e.g. "
           "alert:p99_slowdown>2,for=3 (env RAMP_HEALTH_RULES)\n"
           "  --cache-dir D   persist profiling passes on disk "
           "(env RAMP_CACHE_DIR)\n"
           "  --checkpoint D  journal completed passes; resume a "
           "killed campaign (env RAMP_CHECKPOINT)\n"
           "  --pass-timeout S  flag passes running longer than S "
           "seconds (env RAMP_PASS_TIMEOUT)\n";
}

Report::Report(std::string tool)
    : tool_(std::move(tool))
{
}

void
Report::add(const std::string &workload, const SimResult &result,
            double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PassRecord record;
    record.workload = workload;
    record.result = result;
    record.seconds = seconds;
    passes_.push_back(std::move(record));
}

void
Report::add(const std::string &workload, const SimResult &result,
            PassStatus status, const std::string &error,
            const std::string &message, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    passes_.push_back(
        {workload, result, status, error, message, seconds});
}

std::vector<PassRecord>
Report::passes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return passes_;
}

std::vector<PassRecord>
Report::failures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PassRecord> out;
    for (const auto &pass : passes_)
        if (pass.status != PassStatus::Ok)
            out.push_back(pass);
    return out;
}

namespace
{

/** JSON string escaping (control characters, quotes, backslash). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Finite JSON number (JSON has no inf/nan; render as null). */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
}

} // namespace

bool
Report::writeJson(const std::string &path, unsigned jobs,
                  const ProfileCacheStats &cache_stats,
                  const EventsInfo *events,
                  const HealthInfo *health) const
{
    std::ostringstream out;
    const auto passes = this->passes();
    out << "{\n"
        << "  \"tool\": \"" << jsonEscape(tool_) << "\",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"profile_cache\": {\n"
        << "    \"memory_hits\": " << cache_stats.memoryHits
        << ",\n"
        << "    \"disk_hits\": " << cache_stats.diskHits << ",\n"
        << "    \"misses\": " << cache_stats.misses << ",\n"
        << "    \"disk_writes\": " << cache_stats.diskWrites << "\n"
        << "  },\n";
    if (events != nullptr)
        out << "  \"events\": {\n"
            << "    \"path\": \"" << jsonEscape(events->path)
            << "\",\n"
            << "    \"records\": " << events->records << ",\n"
            << "    \"dropped\": " << events->dropped << "\n"
            << "  },\n";
    if (health != nullptr) {
        out << "  \"health\": {\n"
            << "    \"path\": \"" << jsonEscape(health->path)
            << "\",\n"
            << "    \"rules\": \"" << jsonEscape(health->rules)
            << "\",\n"
            << "    \"samples\": " << health->samples << ",\n"
            << "    \"alerts\": " << health->alerts << ",\n"
            << "    \"warns\": " << health->warns << ",\n"
            << "    \"fired\": [\n";
        for (std::size_t i = 0; i < health->alertJson.size(); ++i)
            out << "      " << health->alertJson[i]
                << (i + 1 < health->alertJson.size() ? "," : "")
                << "\n";
        out << "    ]\n"
            << "  },\n";
    }
    out << "  \"passes\": [\n";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const auto &pass = passes[i];
        const auto &r = pass.result;
        out << "    {\"workload\": \"" << jsonEscape(pass.workload)
            << "\", \"label\": \"" << jsonEscape(r.label) << "\""
            << ", \"status\": \"" << passStatusName(pass.status)
            << "\"";
        if (pass.status != PassStatus::Ok)
            out << ", \"error\": \"" << jsonEscape(pass.error)
                << "\", \"message\": \"" << jsonEscape(pass.message)
                << "\"";
        out << ", \"ipc\": " << jsonNumber(r.ipc)
            << ", \"mpki\": " << jsonNumber(r.mpki)
            << ", \"ser\": " << jsonNumber(r.ser)
            << ", \"memory_avf\": " << jsonNumber(r.memoryAvf)
            << ", \"makespan\": " << r.makespan
            << ", \"instructions\": " << r.instructions
            << ", \"requests\": " << r.requests
            << ", \"avg_read_latency\": "
            << jsonNumber(r.avgReadLatency)
            << ", \"hbm_access_fraction\": "
            << jsonNumber(r.hbmAccessFraction)
            << ", \"migrated_pages\": " << r.migratedPages
            << ", \"migration_events\": " << r.migrationEvents;
        // Fault keys appear only for runs an injector touched, so
        // fault-free artifacts stay byte-identical to before.
        if (r.faultsInjected > 0 || r.capacityLostPages > 0 ||
            r.pagesRetired > 0 || r.degraded) {
            out << ", \"faults_injected\": " << r.faultsInjected
                << ", \"pages_retired\": " << r.pagesRetired
                << ", \"capacity_lost_pages\": "
                << r.capacityLostPages
                << ", \"response_moves\": " << r.responseMoves
                << ", \"response_retries\": " << r.responseRetries
                << ", \"degraded\": "
                << (r.degraded ? "true" : "false");
        }
        out << "}" << (i + 1 < passes.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return atomicWriteFile(path, out.str());
}

} // namespace ramp::runner
