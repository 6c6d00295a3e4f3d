#include "runner/harness.hh"

#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>

#include <sstream>

#include <cstdlib>

#include "common/logging.hh"
#include "common/table.hh"
#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "health/rules.hh"
#include "prof/prof.hh"
#include "telemetry/telemetry.hh"

namespace ramp::runner
{

namespace
{

/**
 * Render the --metrics-out document: the merged registry snapshot
 * plus derived hit-rates, histogram percentiles, and the per-pass
 * status/duration list.
 */
std::string
metricsJson(const std::string &tool, unsigned jobs,
            const std::vector<PassRecord> &passes)
{
    const auto snap = telemetry::metrics().snapshot();
    std::ostringstream out;
    out << "{\n"
        << "  \"tool\": \"" << telemetry::jsonEscape(tool)
        << "\",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"derived\": {\n"
        << "    \"l1d_hit_rate\": "
        << telemetry::jsonNumber(
               hitRate(snap.counterOr("cache.l1d.hits"),
                       snap.counterOr("cache.l1d.misses")))
        << ",\n"
        << "    \"l1i_hit_rate\": "
        << telemetry::jsonNumber(
               hitRate(snap.counterOr("cache.l1i.hits"),
                       snap.counterOr("cache.l1i.misses")))
        << ",\n"
        << "    \"l2_hit_rate\": "
        << telemetry::jsonNumber(
               hitRate(snap.counterOr("cache.l2.hits"),
                       snap.counterOr("cache.l2.misses")))
        << ",\n"
        // A share of traffic split across the memories, not a hit
        // rate: the HBM serving an access is not a "hit".
        << "    \"hbm_access_share\": "
        << telemetry::jsonNumber(
               accessShare(snap.counterOr("hma.accesses.hbm"),
                           snap.counterOr("hma.accesses.ddr")))
        << ",\n"
        << "    \"profile_cache_hit_rate\": "
        << telemetry::jsonNumber(hitRate(
               snap.counterOr("profile_cache.memory_hits") +
                   snap.counterOr("profile_cache.disk_hits"),
               snap.counterOr("profile_cache.misses")))
        << ",\n"
        << "    \"percentiles\": {";
    bool first = true;
    for (const auto &[name, hist] : snap.histograms) {
        out << (first ? "\n" : ",\n") << "      \""
            << telemetry::jsonEscape(name)
            << "\": {\"p50\": " << telemetry::jsonNumber(hist.p50())
            << ", \"p95\": " << telemetry::jsonNumber(hist.p95())
            << ", \"p99\": " << telemetry::jsonNumber(hist.p99())
            << "}";
        first = false;
    }
    out << (first ? "" : "\n    ") << "}\n"
        << "  },\n"
        << "  \"metrics\": " << snap.toJson(2) << ",\n"
        << "  \"passes\": [\n";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const auto &pass = passes[i];
        out << "    {\"workload\": \""
            << telemetry::jsonEscape(pass.workload)
            << "\", \"label\": \""
            << telemetry::jsonEscape(pass.result.label)
            << "\", \"status\": \"" << passStatusName(pass.status)
            << "\", \"seconds\": "
            << telemetry::jsonNumber(pass.seconds) << "}"
            << (i + 1 < passes.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

} // namespace

Harness::Harness(std::string tool, int argc, char **argv)
    : Harness(std::move(tool), RunnerOptions::parse(argc, argv))
{
}

Harness::Harness(std::string tool, RunnerOptions options)
    : tool_(std::move(tool)),
      options_(std::move(options)),
      config_(SystemConfig::scaledDefault()),
      pool_(options_.jobs),
      report_(tool_)
{
    validateSystemConfig(config_);
    if (!options_.metricsPath.empty() ||
        !options_.tracePath.empty()) {
        telemetry::setEnabled(true);
        telemetry::captureLogEvents();
    }
    if (!options_.eventsPath.empty()) {
        eventlog::setEnabled(true);
        if (const char *env = std::getenv("RAMP_EVENTS_LIMIT"))
            eventlog::setCapacity(
                std::strtoull(env, nullptr, 10));
    }
    if (!options_.timelinePath.empty() ||
        !options_.healthRules.empty()) {
        // Health alerts are stamped into the decision ledger and
        // sample attribution needs the eventlog run label, so the
        // monitor switches both substrates on. The telemetry
        // baseline for the timeline's final metrics-delta record is
        // captured by setEnabled(true), so telemetry goes first.
        telemetry::setEnabled(true);
        eventlog::setEnabled(true);
        health::setEnabled(true);
        std::vector<health::HealthRule> rules;
        if (options_.healthRules.empty()) {
            rules = health::defaultRules();
        } else {
            std::string error;
            rules =
                health::parseHealthRules(options_.healthRules, error);
            if (!error.empty())
                throw PassError(PassErrorCode::Usage, error);
        }
        health::setRules(std::move(rules));
    }
    if (!options_.profilePath.empty())
        prof::setEnabled(true);
    if (!options_.cacheDir.empty())
        cache_.setDiskDir(options_.cacheDir);
    if (!options_.checkpointDir.empty())
        journal_ = std::make_unique<CheckpointJournal>(
            options_.checkpointDir, tool_);
    if (options_.passTimeout > 0)
        watchdog_ = std::make_unique<Watchdog>(options_.passTimeout);
}

ProfiledWorkloadPtr
Harness::profile(const WorkloadSpec &spec,
                 const GeneratorOptions &options)
{
    validateSystemConfig(config_);
    throwIfCancelled("profiling");
    auto profiled = cache_.get(config_, spec, options);
    report_.add(profiled->name(), profiled->base);
    return profiled;
}

std::vector<ProfiledWorkloadPtr>
Harness::profileAll(const std::vector<WorkloadSpec> &specs,
                    const GeneratorOptions &options)
{
    validateSystemConfig(config_);
    throwIfCancelled("profiling");
    auto profiled = pool_.map(specs, [&](const WorkloadSpec &spec) {
        return cache_.get(config_, spec, options);
    });
    throwIfCancelled("profiling");
    // Record baselines after the fan-out so the JSON pass order is
    // the spec order, not the scheduling order.
    for (const auto &wl : profiled)
        report_.add(wl->name(), wl->base);
    return profiled;
}

std::string
Harness::passKey(const ProfiledWorkloadPtr &wl,
                 const std::string &label)
{
    const std::string fp = wl ? wl->fingerprint : std::string();
    return hashHex(fnv1a64(fp)) + "/" + label;
}

std::vector<PassOutcome>
Harness::runPassesImpl(const std::vector<PassDesc> &descs,
                       const std::function<SimResult(std::size_t)> &fn)
{
    const std::size_t count = descs.size();
    std::vector<PassOutcome> outcomes(count);

    // Replay journaled passes; only the rest fan out.
    std::vector<std::size_t> missing;
    missing.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto &out = outcomes[i];
        std::string workload;
        if (journal_ != nullptr &&
            journal_->lookup(descs[i].key, workload, out.result)) {
            out.status = PassStatus::Ok;
            out.fromCheckpoint = true;
        } else {
            missing.push_back(i);
        }
    }
    if (missing.size() < count)
        ramp_inform("resumed ", count - missing.size(), " of ",
                    count, " pass(es) from checkpoint journal ",
                    journal_->path());

    pool_.runIndexed(missing.size(), [&](std::size_t task) {
        const std::size_t index = missing[task];
        const PassDesc &desc = descs[index];
        PassOutcome &out = outcomes[index];

        RAMP_TELEM_SPAN(
            pass_span, "pass", "runner",
            telemetry::traceArg("workload", desc.workload));
        RAMP_PROF_SCOPE(pass_prof, "runner.pass");
        // Ledger run label: "<workload>/<pass label>". The label
        // half of the checkpoint key is unique per (workload,
        // pass) and schedule-independent, so analyzers can sort
        // runs deterministically at any --jobs width.
        const std::size_t label_at = desc.key.find('/');
        eventlog::RunScope events_scope(
            desc.workload + "/" +
            (label_at == std::string::npos
                 ? desc.key
                 : desc.key.substr(label_at + 1)));
        std::optional<Watchdog::Scope> scope;
        if (watchdog_ != nullptr)
            scope.emplace(watchdog_->watch(desc.key));
        const auto start = std::chrono::steady_clock::now();
        try {
            out.result = fn(index);
            out.status = PassStatus::Ok;
        } catch (...) {
            const ErrorInfo info =
                describeException(std::current_exception());
            out.result = SimResult{};
            out.error = info.code;
            out.message = info.message;
            if (info.code == PassErrorCode::Cancelled) {
                out.status = PassStatus::Skipped;
            } else {
                out.status = PassStatus::Failed;
                ramp_warn("pass '", desc.key, "' (", desc.workload,
                          ") failed [",
                          passErrorCodeName(info.code),
                          "]: ", info.message);
            }
        }
        scope.reset();
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        out.seconds = elapsed;

        if (out.status == PassStatus::Ok &&
            cancellationRequested()) {
            // A nested fan-out inside the pass may have been cut
            // short by the cancellation flag; never trust (or
            // journal) a result finished after the request.
            out.result = SimResult{};
            out.status = PassStatus::Skipped;
            out.error = PassErrorCode::Cancelled;
            out.message = "cancelled while the pass was running";
            return;
        }
        if (out.status == PassStatus::Ok && options_.passTimeout > 0 &&
            elapsed > options_.passTimeout) {
            out.status = PassStatus::Timeout;
            out.error = PassErrorCode::Timeout;
            out.message =
                "pass took " + std::to_string(elapsed) +
                " s (limit " +
                std::to_string(options_.passTimeout) + " s)";
            return; // Not journaled: a resume re-runs it.
        }
        if (out.status == PassStatus::Ok && journal_ != nullptr)
            journal_->append(desc.key, desc.workload, out.result);
    });

    // Record in desc order, so the report never depends on the
    // scheduling and a resumed run matches an uninterrupted one.
    for (std::size_t i = 0; i < count; ++i) {
        auto &out = outcomes[i];
        if (out.status == PassStatus::Skipped && out.message.empty()) {
            out.error = PassErrorCode::Cancelled;
            out.message = "campaign cancelled before this pass ran";
        }
        if (out.status == PassStatus::Ok)
            report_.add(descs[i].workload, out.result, out.seconds);
        else
            report_.add(descs[i].workload, out.result, out.status,
                        passErrorCodeName(out.error), out.message,
                        out.seconds);
    }

    bool timed_out = false;
    for (const auto &out : outcomes)
        if (out.status == PassStatus::Timeout)
            timed_out = true;
    if (timed_out && !cancellationRequested()) {
        // A timed-out pass is a campaign an operator may kill next;
        // leave the artifacts behind now (finish() atomically
        // rewrites them with the complete campaign later).
        flushOutputs();
    }

    if (cancellationRequested()) {
        finish(); // Flush what completed before winding down.
        const int sig = cancellationSignal();
        throw PassError(PassErrorCode::Cancelled,
                        sig != 0 ? "campaign cancelled by signal " +
                                       std::to_string(sig)
                                 : "campaign cancelled");
    }
    return outcomes;
}

SimResult
Harness::record(const std::string &workload, const SimResult &result)
{
    report_.add(workload, result);
    return result;
}

int
Harness::finish()
{
    const auto failures = report_.failures();
    if (!failures.empty()) {
        TextTable table({"workload", "label", "status", "error",
                         "message"});
        for (const auto &pass : failures)
            table.addRow({pass.workload, pass.result.label,
                          passStatusName(pass.status), pass.error,
                          pass.message});
        table.print(std::cerr,
                    tool_ + ": " + std::to_string(failures.size()) +
                        " pass(es) did not complete");
    }

    const int flush = flushOutputs();
    return flush != 0 ? flush : (failures.empty() ? 0 : 3);
}

int
Harness::flushOutputs()
{
    int code = 0;
    std::optional<EventsInfo> events_info;
    if (!options_.eventsPath.empty()) {
        if (atomicWriteFile(options_.eventsPath,
                            eventlog::toJsonl(tool_))) {
            const auto stats = eventlog::stats();
            events_info = EventsInfo{options_.eventsPath,
                                     stats.recorded, stats.dropped};
        } else {
            std::fprintf(stderr,
                         "%s: cannot write events file to %s\n",
                         tool_.c_str(), options_.eventsPath.c_str());
            code = 1;
        }
    }
    if (cancellationRequested() && eventlog::enabled()) {
        // Post-mortem: park the trailing window of the ledger next
        // to the events file (or under the tool's name when none
        // was requested) so an interrupted campaign leaves its
        // final decisions behind for inspection.
        std::size_t window = 256;
        if (const char *env = std::getenv("RAMP_EVENTS_DUMP"))
            window = std::strtoull(env, nullptr, 10);
        const std::string path =
            options_.eventsPath.empty()
                ? tool_ + ".postmortem.jsonl"
                : options_.eventsPath + ".postmortem";
        if (window > 0 &&
            !atomicWriteFile(
                path, eventlog::postMortemJsonl(tool_, window))) {
            std::fprintf(stderr,
                         "%s: cannot write post-mortem dump to "
                         "%s\n",
                         tool_.c_str(), path.c_str());
            code = 1;
        }
    }
    if (!options_.timelinePath.empty() &&
        !atomicWriteFile(options_.timelinePath,
                         health::timelineJsonl(tool_))) {
        std::fprintf(stderr,
                     "%s: cannot write health timeline to %s\n",
                     tool_.c_str(), options_.timelinePath.c_str());
        code = 1;
    }
    std::optional<HealthInfo> health_info;
    if (health::enabled()) {
        health_info = HealthInfo{};
        health_info->path = options_.timelinePath;
        health_info->rules =
            health::formatHealthRules(health::rules());
        health_info->samples = health::sampleCount();
        for (const auto &alert : health::alerts()) {
            if (alert.severity == health::Severity::Alert)
                ++health_info->alerts;
            else
                ++health_info->warns;
            health_info->alertJson.push_back(
                health::alertJson(alert));
        }
    }
    if (!options_.jsonPath.empty() &&
        !report_.writeJson(options_.jsonPath, pool_.jobs(),
                           cache_.stats(),
                           events_info ? &*events_info : nullptr,
                           health_info ? &*health_info : nullptr)) {
        std::fprintf(stderr, "%s: cannot write JSON report to %s\n",
                     tool_.c_str(), options_.jsonPath.c_str());
        code = 1;
    }
    if (!options_.metricsPath.empty() &&
        !atomicWriteFile(options_.metricsPath,
                         metricsJson(tool_, pool_.jobs(),
                                     report_.passes()))) {
        std::fprintf(stderr,
                     "%s: cannot write metrics snapshot to %s\n",
                     tool_.c_str(), options_.metricsPath.c_str());
        code = 1;
    }
    if (!options_.tracePath.empty() &&
        !atomicWriteFile(options_.tracePath,
                         telemetry::traceJson())) {
        std::fprintf(stderr, "%s: cannot write trace to %s\n",
                     tool_.c_str(), options_.tracePath.c_str());
        code = 1;
    }
    if (!options_.profilePath.empty()) {
        if (!atomicWriteFile(
                options_.profilePath,
                prof::profileJson(tool_, pool_.jobs()))) {
            std::fprintf(stderr,
                         "%s: cannot write cycle profile to %s\n",
                         tool_.c_str(),
                         options_.profilePath.c_str());
            code = 1;
        }
        const std::string folded = options_.profilePath + ".folded";
        if (!atomicWriteFile(folded, prof::foldedStacks())) {
            std::fprintf(stderr,
                         "%s: cannot write folded stacks to %s\n",
                         tool_.c_str(), folded.c_str());
            code = 1;
        }
    }
    return code;
}

} // namespace ramp::runner
