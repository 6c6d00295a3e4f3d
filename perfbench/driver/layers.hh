/**
 * @file
 * Layer budget: a workload's own recorded request stream replayed
 * through each layer's public function alone.
 *
 * The stream is the per-core traces interleaved round-robin. Each
 * layer gets fresh state per repeat and is timed on its own; the full
 * HmaSystem::run of the same traces gives the end-to-end cost. The
 * residual is defined so that the layers plus the residual add up to
 * hma.ns_per_access exactly; it holds what outside timing cannot
 * split (core scheduling, the run loop, per-run setup and the SER
 * fold over residency).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>

#include "workloads.hh"

namespace perfbench
{

/** Median ns per access of each layer over the repeats. */
struct LayerBudget
{
    /** PlacementMap::memoryOf + deviceAddr. */
    double lookupNs = 0;
    /** PageProfile::recordAccess. */
    double profileNs = 0;
    /** AvfTracker::onAccess. */
    double avfNs = 0;
    /** AvfTracker::finalize + memoryAvf + pageAvfs, per access. */
    double foldNs = 0;
    /** DramMemory::access on the page's memory. */
    double dramNs = 0;
    /** MigrationEngine::onAccess (0 without an engine). */
    double engineNs = 0;
    /** HmaSystem::run end to end. */
    double hmaNs = 0;

    double sumNs = 0;
    double residualNs = 0;

    std::uint64_t accesses = 0;

    /** @{ @name Simulated statistics of the replayed run */
    double rowHitRatio = 0;
    double hbmAccessFrac = 0;
    /** @} */
};

LayerBudget measureLayers(const ReplayInput &input, int repeats);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
