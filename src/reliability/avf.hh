/**
 * @file
 * Architectural Vulnerability Factor tracking (paper Section 4.1).
 *
 * AVF is tracked per 64 B cache line over the memory-level request
 * stream: the interval preceding a read is ACE (a fault in it would
 * have been consumed), the interval preceding a write is dead (a
 * fault would have been overwritten — Figure 3b), and the tail after
 * the last access is dead. A line's first access interval starts at
 * time 0, modelling its initialisation at program load. Page AVF is
 * the mean over the page's 64 lines (Equation 1); memory AVF is the
 * mean over the touched footprint.
 */

#ifndef RAMP_RELIABILITY_AVF_HH
#define RAMP_RELIABILITY_AVF_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace ramp
{

/** ACE bookkeeping of one 64 B line. */
struct AvfLineState
{
    Cycle lastAccess = 0;
    Cycle aceTime = 0;
};

/**
 * The per-line ACE rule: the interval before a read is ACE, the
 * interval before a write is dead. The one definition shared by
 * AvfTracker and HmaSystem's per-run line blocks.
 */
inline void
avfLineAccess(AvfLineState &line, bool is_write, Cycle now)
{
    if (!is_write && now > line.lastAccess) {
        // The line had to survive since its previous access (or its
        // initialisation at t = 0) for this read to be correct.
        line.aceTime += now - line.lastAccess;
    }
    line.lastAccess = now;
}

/** Summed ACE time of a page's linesPerPage lines. */
inline Cycle
pageAceTime(const AvfLineState *lines)
{
    Cycle ace = 0;
    for (std::uint64_t l = 0; l < linesPerPage; ++l)
        ace += lines[l].aceTime;
    return ace;
}

/**
 * Per-line ACE interval accumulator composed to page AVF. HmaSystem
 * keeps its own per-run line blocks; this class is the reference
 * model tests compare them against.
 */
class AvfTracker
{
  public:
    /** Record one memory access at the given time. */
    void onAccess(Addr addr, bool is_write, Cycle now);

    /**
     * Close the measurement window. Tail intervals are dead; the
     * total time divides all ACE sums (Equation 1). Must be called
     * once, after the last access.
     */
    void finalize(Cycle end_time);

    /** AVF of one page in [0, 1] (0 for untouched pages). */
    double pageAvf(PageId page) const;

    /** Footprint-mean AVF over all touched pages. */
    double memoryAvf() const;

    /** All touched pages with their AVF. */
    std::vector<std::pair<PageId, double>> pageAvfs() const;

    /** Number of touched pages. */
    std::size_t touchedPages() const { return pages_.size(); }

    /** True once finalize() has been called. */
    bool finalized() const { return totalTime_ > 0; }

    /** Reset to an empty, unfinalised tracker. */
    void reset();

  private:
    struct PageState
    {
        AvfLineState lines[linesPerPage];
    };

    std::unordered_map<PageId, PageState> pages_;
    Cycle totalTime_ = 0;
};

} // namespace ramp

#endif // RAMP_RELIABILITY_AVF_HH
