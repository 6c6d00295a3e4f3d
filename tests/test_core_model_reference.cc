/**
 * @file
 * Cross-validation of CoreModel's flat outstanding-read and ROB
 * window state against the heap/deque implementation it replaced,
 * on seeded random traces and completion times.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <queue>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "hma/core_model.hh"

namespace ramp
{
namespace
{

/** CoreModel on a min-heap and a deque, as first written. */
class ReferenceCore
{
  public:
    ReferenceCore(const CoreTrace &trace, std::uint32_t issue_width,
                  std::uint32_t rob_size, std::uint32_t max_reads)
        : trace_(&trace), issueWidth_(issue_width),
          robSize_(rob_size), maxReads_(max_reads)
    {
        if (!trace.empty())
            computeNextReady();
    }

    bool done() const { return next_ >= trace_->size(); }
    Cycle nextIssueTime() const { return readyTime_; }
    std::uint64_t instructions() const { return instructions_; }
    Cycle finishTime() const { return finishTime_; }

    bool retire(Cycle completion)
    {
        const MemRequest &req = (*trace_)[next_];
        instructions_ += req.instructions();
        if (!req.isWrite) {
            outstanding_.push(completion);
            robWindow_.emplace_back(completion, instructions_);
            finishTime_ = std::max(finishTime_, completion);
        } else {
            finishTime_ = std::max(finishTime_, readyTime_);
        }
        if (++next_ >= trace_->size())
            return false;
        computeNextReady();
        return true;
    }

  private:
    void computeNextReady()
    {
        const MemRequest &req = (*trace_)[next_];
        computeReady_ += static_cast<double>(req.gap) /
                         static_cast<double>(issueWidth_);
        Cycle ready = static_cast<Cycle>(computeReady_);
        while (!outstanding_.empty() && outstanding_.top() <= ready)
            outstanding_.pop();
        while (outstanding_.size() >= maxReads_) {
            ready = std::max(ready, outstanding_.top());
            outstanding_.pop();
        }
        const std::uint64_t instr_index = instructions_ + req.gap;
        while (!robWindow_.empty()) {
            const auto &[completion, index] = robWindow_.front();
            if (completion <= ready) {
                robWindow_.pop_front();
                continue;
            }
            if (instr_index - index >= robSize_) {
                ready = std::max(ready, completion);
                robWindow_.pop_front();
                continue;
            }
            break;
        }
        computeReady_ = std::max(computeReady_,
                                 static_cast<double>(ready));
        readyTime_ = ready;
    }

    const CoreTrace *trace_;
    std::uint32_t issueWidth_;
    std::uint32_t robSize_;
    std::uint32_t maxReads_;
    std::size_t next_ = 0;
    double computeReady_ = 0;
    Cycle readyTime_ = 0;
    std::uint64_t instructions_ = 0;
    Cycle finishTime_ = 0;
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<>>
        outstanding_;
    std::deque<std::pair<Cycle, std::uint64_t>> robWindow_;
};

class CoreModelDiffTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>>
{
};

TEST_P(CoreModelDiffTest, MatchesHeapDequeReference)
{
    const auto [seed, rob, max_reads] = GetParam();
    Rng rng(seed);
    CoreTrace trace(20000);
    for (MemRequest &req : trace) {
        // Mostly short gaps (memory bound), some long compute runs.
        req.gap = static_cast<std::uint32_t>(
            rng.nextBool(0.9) ? rng.nextRange(8) : rng.nextRange(600));
        req.isWrite = rng.nextBool(0.25);
    }
    CoreModel core(trace, 4, rob, max_reads);
    ReferenceCore reference(trace, 4, rob, max_reads);

    std::size_t i = 0;
    bool more = true;
    while (more) {
        ASSERT_FALSE(core.done());
        ASSERT_EQ(core.nextIssueTime(), reference.nextIssueTime())
            << "request " << i;
        // Latencies from a handful of values so completion times
        // tie often, within the heap and within the ROB window.
        const Cycle completion =
            core.nextIssueTime() + 20 * (1 + rng.nextRange(4));
        more = core.retire(completion);
        ASSERT_EQ(reference.retire(completion), more);
        ASSERT_EQ(core.instructions(), reference.instructions());
        ASSERT_EQ(core.finishTime(), reference.finishTime());
        ++i;
    }
    EXPECT_TRUE(core.done());
    EXPECT_TRUE(reference.done());
    EXPECT_EQ(i, trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    Windows, CoreModelDiffTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2),
                       ::testing::Values(1u, 16u, 128u, 4096u),
                       ::testing::Values(1u, 2u, 8u, 64u)));

} // namespace
} // namespace ramp
