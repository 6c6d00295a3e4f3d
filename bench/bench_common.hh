/**
 * @file
 * Shared context for the figure/table harness binaries.
 *
 * Every bench binary regenerates one paper table or figure on the
 * src/runner subsystem: a Harness parses the shared flags (--jobs,
 * --json, --cache-dir, --checkpoint, --pass-timeout), profiles
 * workloads through the process-wide (and optionally on-disk)
 * profile cache, fans the policy passes out over the thread pool
 * with deterministic, ordered, fault-contained results, and records
 * every pass into the JSON report. main() wraps its body in
 * runner::benchMain, which installs the SIGINT/SIGTERM handlers and
 * maps failures onto exit codes (usage 2, cancelled 128+signal,
 * anything else 1; Harness::finish() returns 3 when a pass failed).
 * See DESIGN.md Section 3 for the experiment index and
 * EXPERIMENTS.md for paper-vs-measured values.
 */

#ifndef RAMP_BENCH_BENCH_COMMON_HH
#define RAMP_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "eventlog/eventlog.hh"
#include "hma/experiment.hh"
#include "perf/microbench.hh"
#include "placement/profile.hh"
#include "runner/harness.hh"
#include "telemetry/histogram.hh"

namespace ramp::bench
{

using runner::Harness;
using runner::PassDesc;
using runner::PassOutcome;
using runner::ProfiledWorkload;
using runner::ProfiledWorkloadPtr;
using runner::RatioColumn;
using runner::benchMain;
using runner::meanRatio;

/**
 * The paper's write-share bucketing: five equal bins over [0, 1]
 * (0-20%, 21-40%, ...). The epsilon keeps a pure-write page (share
 * exactly 1.0) in the last bin instead of clamping past it.
 */
inline telemetry::FixedHistogram
writeShareHistogram()
{
    return telemetry::FixedHistogram::linear(0.0, 1.0 + 1e-9, 5);
}

/** Bin every page's write share of accesses into `histogram`. */
inline void
addWriteShares(telemetry::FixedHistogram &histogram,
               const PageProfile &profile)
{
    for (const auto &[page, stats] : profile.pages()) {
        const double total = static_cast<double>(stats.hotness());
        histogram.add(total == 0 ? 0.0
                                 : static_cast<double>(stats.writes) /
                                       total);
    }
}

/** Print a write-share histogram as the standard two-column table. */
inline void
printWriteShareTable(const telemetry::FixedHistogram &histogram,
                     const std::string &title)
{
    TextTable table({"write share bin", "pages"});
    for (std::size_t bin = 0; bin < histogram.numBuckets(); ++bin) {
        table.addRow(
            {TextTable::percent(histogram.bucketLow(bin), 0) +
                 " - " +
                 TextTable::percent(
                     std::min(1.0, histogram.bucketHigh(bin)), 0),
             TextTable::num(histogram.bucketCount(bin))});
    }
    table.print(std::cout, title);
}

/** Table cell for a pass that produced no metrics ("FAILED"...). */
inline std::string
statusCell(const PassOutcome &outcome)
{
    std::string name = runner::passStatusName(outcome.status);
    for (auto &c : name)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return name;
}

/** Print microbenchmark rows as the standard table. */
inline void
printMicrobenchTable(const std::vector<perf::BenchResult> &rows,
                     const std::string &title)
{
    TextTable table({"benchmark", "unit", "mean", "stddev",
                     "ci95", "min", "items/s"});
    for (const auto &r : rows) {
        table.addRow(
            {r.name, r.unit, TextTable::num(r.meanSeconds * 1e3, 3),
             TextTable::num(r.stddevSeconds * 1e3, 3),
             TextTable::num(r.ci95Seconds * 1e3, 3),
             TextTable::num(r.minSeconds * 1e3, 3),
             TextTable::num(r.itemsPerSecond, 0)});
    }
    table.print(std::cout, title + " (times in ms)");
}

/**
 * One placement policy under test: a static placement or a dynamic
 * migration scheme. The policy-sweep benches (fault_storm,
 * datacenter_service's per-tenant arbitration table) iterate one
 * case list instead of hand-rolling parallel static/dynamic loops.
 */
struct PolicyCase
{
    std::string label;
    bool isDynamic = false;
    StaticPolicy policy = StaticPolicy::Balanced;
    DynamicScheme scheme = DynamicScheme::PerfFocused;
};

/** The standard sweep: five static placements, three engines. */
inline std::vector<PolicyCase>
policyCases()
{
    std::vector<PolicyCase> cases;
    for (const StaticPolicy policy :
         {StaticPolicy::PerfFocused, StaticPolicy::ReliabilityFocused,
          StaticPolicy::Balanced, StaticPolicy::WrRatio,
          StaticPolicy::Wr2Ratio})
        cases.push_back({policyName(policy), false, policy, {}});
    for (const DynamicScheme scheme :
         {DynamicScheme::PerfFocused, DynamicScheme::FcReliability,
          DynamicScheme::CrossCounter})
        cases.push_back(
            {dynamicSchemeName(scheme), true, {}, scheme});
    return cases;
}

/**
 * Run one policy case clean, under a deterministic ledger scope.
 * mapWorkloads does not label ledger runs the way runPasses does,
 * so the scope label keeps fault/decision records sorting
 * schedule-independently.
 */
inline SimResult
runPolicyCase(const SystemConfig &config, const WorkloadData &data,
              const PolicyCase &pc, const PageProfile &profile,
              const std::string &scope_label)
{
    eventlog::RunScope scope(scope_label);
    return pc.isDynamic
               ? runDynamic(config, data, pc.scheme, profile)
               : runStaticPolicy(config, data, pc.policy, profile);
}

/** Run one policy case under online fault injection. */
inline SimResult
runPolicyCaseFaulted(const SystemConfig &config,
                     const WorkloadData &data, const PolicyCase &pc,
                     const PageProfile &profile,
                     const InjectorConfig &faults,
                     const std::string &scope_label)
{
    eventlog::RunScope scope(scope_label);
    return pc.isDynamic
               ? runDynamicFaulted(config, data, pc.scheme, profile,
                                   faults)
               : runStaticFaulted(config, data, pc.policy, profile,
                                  faults);
}

/**
 * Parse a non-negative integer flag value or exit with usage
 * status 2 — the shared shape of every bench's ad-hoc flag loop.
 */
inline std::uint64_t
parseUnsignedFlag(const std::string &tool, const char *flag,
                  const std::string &text)
{
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
        std::cerr << tool << ": " << flag
                  << " needs a non-negative integer, got '" << text
                  << "'\n";
        std::exit(2);
    }
    return parsed;
}

/** Fetch the value of flag i from a positional list, or exit 2. */
inline const std::string &
flagValue(const std::string &tool, const char *flag,
          const std::vector<std::string> &positional, std::size_t &i)
{
    if (i + 1 >= positional.size()) {
        std::cerr << tool << ": " << flag << " needs a value\n";
        std::exit(2);
    }
    return positional[++i];
}

} // namespace ramp::bench

#endif // RAMP_BENCH_BENCH_COMMON_HH
