/**
 * @file
 * The benchmark's three campaign workloads.
 *
 * Each workload is one round of fixed simulated work, generated from
 * the seed and driven through the library's public entry points:
 *
 *  - static_sweep: Figure 1's hot-fraction sweep (11 points plus the
 *    balanced placement) and the five Table 3 static policies over
 *    astar, cactusADM and mix1, from memory-level traces;
 *  - migration_mix: the three dynamic schemes plus the region engine
 *    on the same workloads, from CPU-level traces passed through the
 *    cache filter;
 *  - service_storm: 64 tenants on 4 shards with reliability-weighted
 *    arbitration, a fault storm on one shard, and the decision ledger
 *    and epoch timeline recording.
 *
 * A round times its setup (trace generation, cache filter, DDR-only
 * profiling, initial placements or tenant admission) and its passes,
 * checks every pass's output, and folds every simulated statistic
 * into a digest. The checks run after the clock stops; a pass is
 * digested as it finishes so its per-page profile can be freed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hma/system.hh"
#include "placement/map.hh"
#include "runner/pool.hh"
#include "trace/trace.hh"
#include "trace.hh"

namespace perfbench
{

/** What a round runs with. */
struct Context
{
    std::uint64_t seed = 1;

    /** Multiplies the input size (the self-test shrinks it). */
    double scale = 1.0;

    ramp::runner::ThreadPool *pool = nullptr;
    Tracer *tracer = nullptr;
};

/** Host timings, checks and simulated statistics of one round. */
struct Round
{
    /** Host seconds: whole round, setup only, passes only. */
    double wallS = 0;
    double setupS = 0;
    double passesS = 0;

    /** Process CPU seconds spent in the round. */
    double cpuS = 0;

    /** Simulated demand accesses of the passes (after setup). */
    std::uint64_t accesses = 0;

    /** Passes run and passes that failed a check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Digest of every simulated statistic of the round. */
    std::string digest;

    /** Host seconds of each pass (one pool task each). */
    std::vector<double> passSeconds;

    /** Pool busy share of the passes phase. */
    double busyFrac = 0;

    /** Deterministic simulated counts, by per-layer metric name. */
    std::map<std::string, double> counts;
};

/** A recorded request stream the layer budget replays. */
struct ReplayInput
{
    ramp::SystemConfig config;
    std::vector<ramp::CoreTrace> traces;
    ramp::PlacementMap placement{config.hbmPages()};

    /** Also replay the cross-counter migration engine. */
    bool engine = false;
};

struct Workload
{
    const char *name;
    Round (*run)(const Context &);
    ReplayInput (*replay)(const Context &);
};

/** Digest of every simulated statistic of one pass. */
std::uint64_t simDigest(const ramp::SimResult &result);

/** static_sweep, migration_mix, service_storm. */
const std::vector<Workload> &workloads();

/** nullptr for an unknown name. */
const Workload *findWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
