/**
 * @file
 * Result sink of the experiment runner.
 *
 * Collects every simulation pass a harness binary executes and
 * emits two views: the paper-style TextTable rows the binary prints
 * itself, and a machine-readable JSON document (--json <path>) with
 * per-pass IPC, MPKI, SER, AVF, and migration counters plus the
 * profile-cache hit counters — the repo's first structured
 * perf-trajectory output.
 *
 * The summary-row helpers (meanRatio, RatioColumn) live here so that
 * every figure binary computes its trailing "average" row the same
 * way instead of hand-rolling ratio vectors.
 */

#ifndef RAMP_RUNNER_REPORT_HH
#define RAMP_RUNNER_REPORT_HH

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "hma/system.hh"
#include "runner/error.hh"
#include "runner/profile_cache.hh"

namespace ramp::runner
{

/** Arithmetic mean of a ratio series (0 when empty). */
double meanRatio(std::span<const double> ratios);

/** @{ @name Derived-metric helpers (--metrics-out "derived" block)
 * Numerically both are part/(part+rest), but they answer different
 * questions: hitRate() is the success fraction of a hits/misses
 * counter pair, accessShare() is one component's share of traffic
 * split across two destinations (e.g. the HBM's share of demand
 * accesses). Keeping them separate stops a share from being
 * mislabelled as a hit rate.
 */

/** Hit fraction of a hits/misses pair (NaN when idle: the JSON
 * emitters render that as null, not a fake 0). */
double hitRate(std::uint64_t hits, std::uint64_t misses);

/** Share of `part` in part+rest traffic (NaN when idle). */
double accessShare(std::uint64_t part, std::uint64_t rest);
/** @} */

/**
 * One ratio column of a figure table, accumulated per workload and
 * summarised in the trailing "average" row.
 */
class RatioColumn
{
  public:
    /** Append one workload's ratio; returns it for chaining. */
    double add(double ratio)
    {
        values_.push_back(ratio);
        return ratio;
    }

    /** Arithmetic mean of the column (0 when empty). */
    double mean() const;

    /** Average cell formatted as a ratio, e.g. "1.62x". */
    std::string averageCell(int precision = 2) const;

    /** Average cell formatted as a loss, e.g. "14.1%". */
    std::string lossCell(int precision = 1) const;

    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
};

/** Command-line/environment knobs shared by harness binaries. */
struct RunnerOptions
{
    /** Simulation-pass parallelism; 0 = hardware concurrency. */
    unsigned jobs = 0;

    /** JSON report target ("" = no JSON). */
    std::string jsonPath;

    /** Telemetry metrics-snapshot target ("" = no metrics file). */
    std::string metricsPath;

    /** Chrome trace-event target ("" = no trace file). */
    std::string tracePath;

    /** Decision-ledger JSONL target ("" = no events file). */
    std::string eventsPath;

    /** Health-timeline JSONL target ("" = no timeline file). */
    std::string timelinePath;

    /** Health rule set ("" = defaults when the timeline is on). */
    std::string healthRules;

    /** Cycle-profile target ("" = profiler off). The folded
     * flamegraph stacks land next to it at PATH.folded. */
    std::string profilePath;

    /** On-disk profile-cache directory ("" = memory-only). */
    std::string cacheDir;

    /** Checkpoint-journal directory ("" = no checkpointing). */
    std::string checkpointDir;

    /** Watchdog threshold in seconds (0 = no watchdog). */
    double passTimeout = 0;

    /** Arguments not consumed by the runner, in order. */
    std::vector<std::string> positional;

    /**
     * Parse --jobs N, --json PATH, --metrics-out PATH, --trace-out
     * PATH, --events-out PATH, --timeline-out PATH, --health-rules
     * RULES, --profile-out PATH, --cache-dir PATH, --checkpoint
     * DIR, and --pass-timeout S from argv (with RAMP_JOBS /
     * RAMP_JSON / RAMP_METRICS_OUT / RAMP_TRACE_OUT /
     * RAMP_EVENTS_OUT / RAMP_TIMELINE_OUT / RAMP_HEALTH_RULES /
     * RAMP_PROF_OUT / RAMP_CACHE_DIR / RAMP_CHECKPOINT /
     * RAMP_PASS_TIMEOUT environment fallbacks); everything else
     * lands in positional.
     * Throws PassError(Usage) on a malformed flag — the binary
     * decides the exit code.
     */
    static RunnerOptions parse(int argc, char **argv);

    /** Usage text of the flags parse() consumes. */
    static const char *flagsHelp();
};

/** Decision-ledger summary stamped into the JSON document. */
struct EventsInfo
{
    /** Events-file path as requested (--events-out). */
    std::string path;

    /** Records written to the events file. */
    std::uint64_t records = 0;

    /** Records dropped at the RAMP_EVENTS_LIMIT capacity cap. */
    std::uint64_t dropped = 0;
};

/** Health-monitor summary stamped into the JSON document. */
struct HealthInfo
{
    /** Timeline-file path as requested (--timeline-out). */
    std::string path;

    /** Installed rule set (canonical spelling). */
    std::string rules;

    /** Timeline samples recorded. */
    std::uint64_t samples = 0;

    /** alert-severity rules fired. */
    std::uint64_t alerts = 0;

    /** warn-severity rules fired. */
    std::uint64_t warns = 0;

    /** Fired alerts as pre-rendered JSON objects, in sorted order. */
    std::vector<std::string> alertJson;
};

/** One recorded simulation pass. */
struct PassRecord
{
    std::string workload;
    SimResult result;

    /** Terminal state; non-Ok records carry error/message. */
    PassStatus status = PassStatus::Ok;

    /** Error-code name (passErrorCodeName) when not Ok. */
    std::string error;

    /** Human-readable failure description when not Ok. */
    std::string message;

    /** Wall-clock duration of the pass (0 = not measured). */
    double seconds = 0;
};

/** Thread-safe collector of pass results; writes the JSON view. */
class Report
{
  public:
    /** @param tool binary name stamped into the JSON document. */
    explicit Report(std::string tool);

    /** Record one pass (label taken from result.label). */
    void add(const std::string &workload, const SimResult &result,
             double seconds = 0);

    /** Record one pass with an explicit terminal status. */
    void add(const std::string &workload, const SimResult &result,
             PassStatus status, const std::string &error,
             const std::string &message, double seconds = 0);

    /** Recorded passes, in recording order. */
    std::vector<PassRecord> passes() const;

    /** Recorded passes whose status is not Ok, in order. */
    std::vector<PassRecord> failures() const;

    /**
     * Write the JSON document: tool, jobs, per-pass metrics and
     * status, the profile-cache counters, and (when written) the
     * decision-ledger and health-monitor summaries. The write is
     * atomic (unique temp file + rename), so a crash never leaves a
     * torn report. Returns false when the file cannot be written.
     */
    bool writeJson(const std::string &path, unsigned jobs,
                   const ProfileCacheStats &cache_stats,
                   const EventsInfo *events = nullptr,
                   const HealthInfo *health = nullptr) const;

  private:
    std::string tool_;
    mutable std::mutex mutex_;
    std::vector<PassRecord> passes_;
};

} // namespace ramp::runner

#endif // RAMP_RUNNER_REPORT_HH
