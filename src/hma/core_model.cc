#include "hma/core_model.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace ramp
{

CoreModel::CoreModel(const CoreTrace &trace, std::uint32_t issue_width,
                     std::uint32_t rob_size, std::uint32_t max_reads)
    : trace_(&trace), issueWidth_(issue_width), robSize_(rob_size),
      maxReads_(max_reads)
{
    if (issue_width == 0 || rob_size == 0 || max_reads == 0)
        ramp_fatal("core model parameters must be positive");
    if (!trace.empty())
        computeNextReady();
}

void
CoreModel::computeNextReady()
{
    const MemRequest &req = (*trace_)[next_];

    // Compute-limited time: the gap's instructions retire at the
    // issue width.
    computeReady_ += static_cast<double>(req.gap) /
                     static_cast<double>(issueWidth_);
    Cycle ready = static_cast<Cycle>(computeReady_);

    // Retire reads that have certainly completed by then.
    while (!outstanding_.empty() && outstanding_.back() <= ready)
        outstanding_.pop_back();

    // MSHR constraint: wait for the oldest read if all slots busy.
    while (outstanding_.size() >= maxReads_) {
        ready = std::max(ready, outstanding_.back());
        outstanding_.pop_back();
    }

    // ROB constraint: the next instruction may not be more than
    // robSize_ instructions ahead of an incomplete read.
    const std::uint64_t instr_index = instructions_ + req.gap;
    while (robHead_ < robWindow_.size()) {
        const auto &[completion, index] = robWindow_[robHead_];
        if (completion <= ready) {
            ++robHead_;
            continue;
        }
        if (instr_index - index >= robSize_) {
            ready = std::max(ready, completion);
            ++robHead_;
            continue;
        }
        break;
    }
    // Compact once the popped prefix outgrows the live window, so
    // the vector stays O(window) and each entry moves O(1) times.
    if (robHead_ > 64 && 2 * robHead_ > robWindow_.size()) {
        robWindow_.erase(robWindow_.begin(),
                         robWindow_.begin() +
                             static_cast<std::ptrdiff_t>(robHead_));
        robHead_ = 0;
    }

    computeReady_ = std::max(computeReady_,
                             static_cast<double>(ready));
    readyTime_ = ready;
}

bool
CoreModel::retire(Cycle completion)
{
    const MemRequest &req = (*trace_)[next_];
    instructions_ += req.instructions();

    if (!req.isWrite) {
        outstanding_.insert(std::upper_bound(outstanding_.begin(),
                                             outstanding_.end(),
                                             completion,
                                             std::greater<>()),
                            completion);
        robWindow_.emplace_back(completion, instructions_);
        finishTime_ = std::max(finishTime_, completion);
    } else {
        // Posted write: the core moves on at issue time.
        finishTime_ = std::max(finishTime_, readyTime_);
    }

    if (++next_ >= trace_->size())
        return false;
    computeNextReady();
    return true;
}

} // namespace ramp
