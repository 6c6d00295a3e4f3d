/**
 * @file
 * Earliest-ready pick over a small per-core array.
 *
 * The simulator and the cache filter interleave their cores by
 * (time, core): the earliest core goes next and ties go to the
 * lowest core index. With one entry per core that order is an
 * argmin over a ready array, a branch-free scan of a few cache
 * lines instead of a heap push and pop per access.
 */

#ifndef RAMP_COMMON_ISSUE_ORDER_HH
#define RAMP_COMMON_ISSUE_ORDER_HH

#include <cstdint>
#include <vector>

namespace ramp
{

/** Ready time of a core with nothing left to issue. */
inline constexpr std::uint64_t finishedCore = UINT64_MAX;

/**
 * Index of the smallest ready time, the lowest index on ties; the
 * array's size when every core is finished.
 */
inline std::size_t
earliestReady(const std::vector<std::uint64_t> &ready)
{
    std::size_t best = ready.size();
    std::uint64_t best_time = finishedCore;
    for (std::size_t i = 0; i < ready.size(); ++i) {
        const bool earlier = ready[i] < best_time;
        best = earlier ? i : best;
        best_time = earlier ? ready[i] : best_time;
    }
    return best;
}

} // namespace ramp

#endif // RAMP_COMMON_ISSUE_ORDER_HH
