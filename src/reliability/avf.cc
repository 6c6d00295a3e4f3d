#include "reliability/avf.hh"

#include "common/logging.hh"

namespace ramp
{

void
AvfTracker::onAccess(Addr addr, bool is_write, Cycle now)
{
    if (finalized())
        ramp_panic("AvfTracker accessed after finalize");
    avfLineAccess(pages_[pageOf(addr)].lines[lineInPage(addr)],
                  is_write, now);
}

void
AvfTracker::finalize(Cycle end_time)
{
    if (end_time == 0)
        ramp_fatal("AVF window must have positive length");
    if (finalized())
        ramp_panic("AvfTracker finalized twice");
    totalTime_ = end_time;
}

double
AvfTracker::pageAvf(PageId page) const
{
    if (!finalized())
        ramp_panic("pageAvf before finalize");
    const auto it = pages_.find(page);
    if (it == pages_.end())
        return 0.0;
    return static_cast<double>(pageAceTime(it->second.lines)) /
           (static_cast<double>(linesPerPage) *
            static_cast<double>(totalTime_));
}

double
AvfTracker::memoryAvf() const
{
    if (!finalized())
        ramp_panic("memoryAvf before finalize");
    if (pages_.empty())
        return 0.0;
    double sum = 0;
    for (const auto &[page, state] : pages_)
        sum += static_cast<double>(pageAceTime(state.lines));
    return sum / (static_cast<double>(linesPerPage) *
                  static_cast<double>(totalTime_) *
                  static_cast<double>(pages_.size()));
}

std::vector<std::pair<PageId, double>>
AvfTracker::pageAvfs() const
{
    std::vector<std::pair<PageId, double>> result;
    result.reserve(pages_.size());
    for (const auto &[page, state] : pages_)
        result.emplace_back(page, pageAvf(page));
    return result;
}

void
AvfTracker::reset()
{
    pages_.clear();
    totalTime_ = 0;
}

} // namespace ramp
