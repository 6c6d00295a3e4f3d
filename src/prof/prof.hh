/**
 * @file
 * Cycle-level hot-path profiler and Chrome trace recorder: the one
 * scope primitive of the code base.
 *
 * RAMP_PROF_SCOPE(var, "phase") opens a scope that feeds two
 * recorders, each behind its own bit of the enable word
 * (common/enable.hh):
 *
 *  - profile: on entry it reads the TSC (prof/tsc.hh) and descends
 *    into the calling thread's hierarchical phase tree, on exit it
 *    accumulates the cycle delta and call count into that tree
 *    node. Nested scopes build real call trees, so snapshots can
 *    report both total cycles (including children) and self cycles
 *    (excluding them) per phase path. RAMP_PROF_SCOPE_PMU
 *    additionally samples the hardware PMU group (prof/pmu.hh) at
 *    entry and exit, attributing cycles, instructions, LLC misses,
 *    and branch misses to the phase; when the PMU is unavailable
 *    (CI containers) those scopes silently degrade to TSC-only.
 *  - trace: the scope appends a Chrome "B" event on entry and the
 *    matching "E" on exit, so pairs are well-nested per thread by
 *    construction. A scope may carry one key/value arg, rendered
 *    into its B event only while tracing. instant() adds "i"
 *    events; captureLogEvents() tees warn()/inform() lines into
 *    the trace that way. The event category is the name's prefix
 *    up to the first '.' ("hma.run" -> "hma").
 *
 * Each thread owns its tree and event list (mutations under a
 * per-thread mutex) and snapshot() merges all trees exactly, keyed
 * by phase-name content — like the metrics registry, totals are
 * schedule-independent for deterministic workloads: the same phases
 * run the same number of times at any --jobs, only the raw cycle
 * counts carry timing noise. traceJson() concatenates the threads'
 * events in registration order.
 *
 * Gating follows the house pattern: a disabled site costs one
 * relaxed atomic load and a branch (and allocates nothing — thread
 * state is only created by enabled scopes).
 *
 * Exports: profileJson() renders the self-describing
 * ramp-profile-v1 document, foldedStacks() the matching
 * `path;to;phase self_cycles` flamegraph lines, and traceJson() the
 * Chrome trace-event document. The harness wires them behind
 * --profile-out / RAMP_PROF_OUT and --trace-out / RAMP_TRACE_OUT.
 */

#ifndef RAMP_PROF_PROF_HH
#define RAMP_PROF_PROF_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/enable.hh"
#include "prof/pmu.hh"

namespace ramp::prof
{

/** Schema identifier stamped into profile documents. */
inline constexpr const char *profileSchema = "ramp-profile-v1";

/** True when scopes charge the phase trees (default off). */
inline bool
enabled()
{
    return enable::any(enable::profile);
}

/** Toggle phase-tree recording at runtime. */
inline void
setEnabled(bool on)
{
    enable::set(enable::profile, on);
}

/** True when scopes append Chrome trace events (default off). */
inline bool
tracing()
{
    return enable::any(enable::trace);
}

/** Toggle trace-event recording at runtime. */
inline void
setTracing(bool on)
{
    enable::set(enable::trace, on);
}

/**
 * Intern a dynamic phase name (e.g. "kernel." + microbench case)
 * into a process-lifetime string usable with RAMP_PROF_SCOPE.
 */
const char *internName(std::string_view name);

/** One phase path in a merged snapshot. */
struct PhaseStat
{
    /** Semicolon-joined path from the root, e.g. "hma.run;hma.migration_epoch". */
    std::string path;

    /** Leaf phase name (last path component). */
    std::string name;

    /** 0 for top-level phases. */
    unsigned depth = 0;

    std::uint64_t calls = 0;

    /** Cycles inside the phase, children included. */
    std::uint64_t totalCycles = 0;

    /** totalCycles minus the children's totals (saturating). */
    std::uint64_t selfCycles = 0;

    /** Calls that captured a valid PMU delta (0 = TSC-only). */
    std::uint64_t pmuCalls = 0;
    std::uint64_t pmuCycles = 0;
    std::uint64_t pmuInstructions = 0;
    std::uint64_t pmuLlcMisses = 0;
    std::uint64_t pmuBranchMisses = 0;
};

/** All threads' phase trees, merged exactly and path-sorted. */
struct ProfileSnapshot
{
    /** pmuAvailable() at snapshot time. */
    bool pmuAvailable = false;

    std::vector<PhaseStat> phases;
};

/**
 * Merge every thread's tree (children sorted by name, so the
 * result is independent of thread registration order) and compute
 * self cycles. Phases whose subtree never ran are omitted.
 */
ProfileSnapshot snapshot();

/**
 * The ramp-profile-v1 document: schema/tool/jobs header, host block
 * (cpu_model, tsc_hz), pmu availability, and one record per phase
 * path with cycle totals, seconds (via the calibrated TSC
 * frequency), and PMU-derived rates (IPC, misses per kilo-
 * instruction) where sampled.
 */
std::string profileJson(const std::string &tool, unsigned jobs);

/**
 * Flamegraph folded-stack lines: `root;child;leaf self_cycles`, one
 * per phase path with nonzero self cycles.
 */
std::string foldedStacks();

/**
 * Record an instant ("i") event with an optional key/value arg
 * when tracing. `name` must outlive the trace (a literal or an
 * internName() result).
 */
void instant(const char *name, const char *arg_key = nullptr,
             std::string_view arg_value = {});

/**
 * Tee warn()/inform() lines into the trace as "log.warn" /
 * "log.inform" instants on top of the current log sink.
 * Idempotent; stderr output is unchanged.
 */
void captureLogEvents();

/**
 * The merged Chrome trace-event JSON document
 * ({"traceEvents": [...]}) of everything recorded so far.
 */
std::string traceJson();

/** Zero every registered tree's counters and drop all events. */
void reset();

/** Registered per-thread states (tests: disabled path adds none). */
std::size_t threadStateCountForTest();

namespace detail
{

struct ThreadProf;
struct PhaseNode;

} // namespace detail

/**
 * RAII phase scope; use through RAMP_PROF_SCOPE /
 * RAMP_PROF_SCOPE_PMU. Captures the profile and trace bits at entry
 * and commits at exit even if they are toggled off mid-scope, so
 * trees and B/E pairs stay balanced. `name` must outlive the
 * recorders (a literal or an internName() result).
 */
class ScopedPhase
{
  public:
    /** Tag: open the phase at the thread's root, not its cursor. */
    struct AtRoot
    {
    };

    ScopedPhase(const char *name, bool with_pmu,
                const char *arg_key = nullptr,
                std::string_view arg_value = {})
    {
        const unsigned mode =
            enable::which(enable::profile | enable::trace);
        if (mode != 0)
            begin(name, with_pmu, false, mode, arg_key, arg_value);
    }

    ScopedPhase(AtRoot, const char *name)
    {
        const unsigned mode =
            enable::which(enable::profile | enable::trace);
        if (mode != 0)
            begin(name, false, true, mode, nullptr, {});
    }

    ~ScopedPhase()
    {
        if (mode_ != 0)
            end();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    void begin(const char *name, bool with_pmu, bool at_root,
               unsigned mode, const char *arg_key,
               std::string_view arg_value);
    void end();

    // Only mode_ carries a default: a disabled construction must
    // cost one store beyond the enable-word check, so the other
    // members (including the PMU start values, stored raw rather
    // than as a PmuSample whose default constructor would zero
    // them) stay uninitialized until begin() runs.
    unsigned mode_ = 0; ///< Enable bits latched at entry.
    bool pmuActive_;
    const char *name_;
    detail::ThreadProf *state_;
    detail::PhaseNode *node_;
    detail::PhaseNode *caller_; ///< the cursor to restore at exit
    std::uint64_t startCycles_;
    std::uint64_t pmuStartCycles_;
    std::uint64_t pmuStartInstructions_;
    std::uint64_t pmuStartLlcMisses_;
    std::uint64_t pmuStartBranchMisses_;
};

} // namespace ramp::prof

/**
 * Open a TSC-only phase scope for the rest of the block, optionally
 * with one trace arg (key literal, string value):
 *
 *   RAMP_PROF_SCOPE(prof_scope, "cache.access");
 *   RAMP_PROF_SCOPE(pass_scope, "pass", "workload", name);
 */
#define RAMP_PROF_SCOPE(var, name, ...) \
    ::ramp::prof::ScopedPhase var((name), \
                                  false __VA_OPT__(, ) __VA_ARGS__)
#define RAMP_PROF_SCOPE_PMU(var, name, ...) \
    ::ramp::prof::ScopedPhase var((name), \
                                  true __VA_OPT__(, ) __VA_ARGS__)

/**
 * Open a TSC-only scope at the thread's phase root whatever scope
 * encloses it, restoring the enclosing one at exit. Work that the
 * thread pool may run on the calling thread or on a worker opens
 * one, so its phase paths do not depend on --jobs.
 */
#define RAMP_PROF_ROOT_SCOPE(var, name) \
    ::ramp::prof::ScopedPhase var(::ramp::prof::ScopedPhase::AtRoot{}, \
                                  (name))

#endif // RAMP_PROF_PROF_HH
