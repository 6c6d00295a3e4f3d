/**
 * @file
 * Epoch-aligned timeline telemetry + SLO health monitor.
 *
 * Every other observability surface (metrics, traces, the decision
 * ledger) is an end-of-run snapshot. This subsystem
 * is the continuous layer: at every epoch boundary — an HmaSystem
 * injector/migration epoch, or a PlacementService global epoch —
 * the simulator hands the recorder one TimelineSample carrying the
 * derived health signals of that epoch (per-tenant hbm_share /
 * slowdown / resident pages, per-shard occupancy and degraded
 * flags, fault backlog and retire counts, migration churn, Jain
 * fairness, p99 slowdown). The recorder stamps each sample with a
 * per-(source, run) sequence number and evaluates the installed
 * HealthMonitor rules (rules.hh) against it, firing warn/alert
 * events with `for=` hysteresis.
 *
 * Determinism: samples are captured inside the run that produced
 * them (single-threaded per run), carry only run-derived values,
 * and are rendered sorted by (source, run label, seq) — so
 * timelineJsonl() is byte-identical at any --jobs. The registry
 * delta demanded by the timeline contract is carried by one final
 * "metrics" record: the counter totals accumulated since health was
 * enabled (sharded counters sum exactly, so the delta is
 * schedule-independent), minus the scheduling-dependent `pool.`
 * family.
 *
 * Alerts fan out four ways, all deterministic: an `alert` record in
 * the decision ledger (run/seq-stamped like every other record),
 * `health.*` telemetry counters, the alert lines of the timeline
 * document, and any registered callbacks (the hook the service
 * layer can use for admission control).
 *
 * Gating mirrors telemetry/eventlog exactly: disabled instrumented
 * sites cost one relaxed atomic load and branch (RAMP_HEALTH).
 *
 * Run labels come from the calling thread's eventlog::RunScope, so
 * the harness enables the ledger whenever the timeline is on;
 * without a scope, samples land in the "unattributed" run.
 */

#ifndef RAMP_HEALTH_HEALTH_HH
#define RAMP_HEALTH_HEALTH_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "health/rules.hh"

namespace ramp::health
{

/** Schema identifier stamped into the timeline header line. */
inline constexpr const char *timelineSchema = "ramp-timeline-v1";

/** Signals with no measurement render as null. */
inline constexpr double unmeasured =
    std::numeric_limits<double>::quiet_NaN();

/** True when instrumentation sites should record (default off). */
bool enabled();

/**
 * Toggle recording at runtime. Turning it on snapshots the metrics
 * registry as the baseline of the final timeline "metrics" record.
 */
void setEnabled(bool on);

/** One tenant's slice of an epoch (service source only). */
struct TenantSample
{
    std::uint32_t id = 0;
    std::uint32_t shard = 0;

    /** Pages resident in HBM at the epoch boundary. */
    std::uint64_t resident = 0;

    /** Arbitrated HBM quota for the epoch (pages). */
    std::uint64_t grant = 0;

    /** resident / footprint (NaN when footprint unknown). */
    double hbmShare = unmeasured;

    /** Epoch makespan vs solo baseline (NaN without baseline). */
    double slowdown = unmeasured;
};

/** One shard's state at an epoch boundary. */
struct ShardSample
{
    std::uint32_t shard = 0;
    std::uint64_t capacityPages = 0;
    std::uint64_t usedPages = 0;

    /** used / capacity (NaN when the tier has no capacity). */
    double occupancy = unmeasured;

    bool degraded = false;

    /** Pages retired so far (cumulative). */
    std::uint64_t retired = 0;
};

/** One epoch boundary, as handed to record() by a simulator. */
struct TimelineSample
{
    /** Which epoch clock produced it ("system" or "service"). */
    std::string source;

    /** Run label, stamped by record() from the eventlog RunScope. */
    std::string run;

    /** 1-based epoch number on that clock. */
    std::uint64_t epoch = 0;

    /** Per-(source, run) sequence, stamped by record(). */
    std::uint64_t seq = 0;

    /** Pages moved by migration/rebalancing this epoch. */
    std::uint64_t moves = 0;

    /** Faults landed this epoch. */
    std::uint64_t faultsInjected = 0;

    /** Pages retired this epoch. */
    std::uint64_t pagesRetired = 0;

    /** Capacity pages lost this epoch. */
    std::uint64_t capacityLost = 0;

    /** Overfull-HBM backlog after the response swept (pages). */
    double backlog = unmeasured;

    /** Run-wide degraded flag. */
    bool degraded = false;

    /** Jain fairness over tenant HBM residency (service source). */
    double fairness = unmeasured;

    /** p99 tenant slowdown vs solo (service source). */
    double p99Slowdown = unmeasured;

    std::vector<TenantSample> tenants;
    std::vector<ShardSample> shards;
};

/** One fired rule. */
struct HealthAlert
{
    Severity severity = Severity::Alert;

    /** Index of the rule in the installed set (stable id). */
    std::uint32_t rule = 0;

    HealthSignal signal = HealthSignal::P99Slowdown;

    /** Sample coordinates at the firing epoch. */
    std::string source;
    std::string run;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;

    /** Scope instance that breached (0 / -1 = run-wide). */
    std::uint32_t tenant = 0;
    std::int32_t shard = -1;

    /** Measured value (1 for boolean signals) and threshold. */
    double value = unmeasured;
    double threshold = unmeasured;
};

using AlertCallback = std::function<void(const HealthAlert &)>;

/**
 * Install the monitor's rule set (replaces any previous set; resets
 * hysteresis streaks). The empty set disables the monitor but not
 * the timeline.
 */
void setRules(std::vector<HealthRule> rules);

/** The installed rule set. */
std::vector<HealthRule> rules();

/**
 * The default rule set installed by the harness when --timeline-out
 * is given without --health-rules:
 *
 *     alert:shard_degraded;alert:p99_slowdown>2,for=3;warn:fairness<0.9,for=2
 */
std::vector<HealthRule> defaultRules();

/**
 * Register an alert hook, called synchronously from record() under
 * the subsystem lock (keep it cheap; it runs on the simulating
 * thread). Callbacks persist until reset().
 */
void addAlertCallback(AlertCallback callback);

/**
 * Record one epoch-boundary sample: stamps the calling thread's run
 * label and the next (source, run) sequence number, evaluates the
 * rules, and fires any alerts. Call through RAMP_HEALTH.
 */
void record(TimelineSample sample);

/** Samples recorded so far (tests). */
std::uint64_t sampleCount();

/** Alerts fired so far, sorted by (source, run, seq, rule, scope). */
std::vector<HealthAlert> alerts();

/** One alert rendered as a single JSON object line (no newline). */
std::string alertJson(const HealthAlert &alert);

/**
 * The timeline as a JSONL document: a header line ({"schema":
 * "ramp-timeline-v1", "tool": ..., "rules": ...}), one "sample"
 * line per epoch sorted by (source, run, seq), one "alert" line per
 * fired rule, and a final "metrics" line carrying the deterministic
 * counter delta since health was enabled.
 */
std::string timelineJsonl(const std::string &tool);

/** Drop samples, alerts, rules, callbacks, and streaks (tests). */
void reset();

} // namespace ramp::health

/**
 * Run one or more statements only when the health timeline is
 * recording:
 *
 *   RAMP_HEALTH({
 *       ramp::health::TimelineSample sample;
 *       ...
 *       ramp::health::record(std::move(sample));
 *   });
 */
#define RAMP_HEALTH(...) \
    do { \
        if (::ramp::health::enabled()) { \
            __VA_ARGS__; \
        } \
    } while (0)

#endif // RAMP_HEALTH_HEALTH_HH
