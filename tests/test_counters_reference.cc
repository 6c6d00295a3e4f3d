/**
 * @file
 * Cross-validation of the flat migration tracking tables
 * (src/migration/counters) and their PageIndex against the
 * node-based implementations they replaced, on seeded random access
 * streams; plus the earliest-ready issue order against the
 * (time, core) min-heap it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/issue_order.hh"
#include "common/page_index.hh"
#include "common/rng.hh"
#include "migration/counters.hh"

namespace ramp
{
namespace
{

/** Full Counters on std::unordered_map, as first written. */
class ReferenceFullCounters
{
  public:
    explicit ReferenceFullCounters(std::uint32_t bits)
        : maxCount_((1U << bits) - 1)
    {
    }

    void onAccess(PageId page, bool is_write)
    {
        if (counters_.find(page) == counters_.end())
            order_.push_back(page);
        auto &counts = counters_[page];
        auto &field = is_write ? counts.writes : counts.reads;
        if (field < maxCount_)
            ++field;
    }

    FullCounterTable::Counts countsOf(PageId page) const
    {
        const auto it = counters_.find(page);
        return it == counters_.end() ? FullCounterTable::Counts{}
                                     : it->second;
    }

    /** Pages in first-touch order. */
    const std::vector<PageId> &order() const { return order_; }

    double meanHotness() const
    {
        if (counters_.empty())
            return 0.0;
        double sum = 0;
        for (const auto &[page, counts] : counters_)
            sum += counts.hotness();
        return sum / static_cast<double>(counters_.size());
    }

    double meanWrRatio() const
    {
        if (counters_.empty())
            return 0.0;
        double sum = 0;
        for (const auto &[page, counts] : counters_)
            sum += counts.wrRatio();
        return sum / static_cast<double>(counters_.size());
    }

    void reset()
    {
        counters_.clear();
        order_.clear();
    }

  private:
    std::uint32_t maxCount_;
    std::unordered_map<PageId, FullCounterTable::Counts> counters_;
    std::vector<PageId> order_;
};

/** Misra-Gries tracker on std::unordered_map, as first written. */
class ReferenceMea
{
  public:
    explicit ReferenceMea(std::size_t capacity) : capacity_(capacity) {}

    void onAccess(PageId page)
    {
        const auto it = map_.find(page);
        if (it != map_.end()) {
            ++it->second;
            return;
        }
        if (map_.size() < capacity_) {
            map_.emplace(page, 1);
            return;
        }
        for (auto entry = map_.begin(); entry != map_.end();) {
            if (--entry->second == 0)
                entry = map_.erase(entry);
            else
                ++entry;
        }
    }

    std::vector<PageId> hotPages() const
    {
        std::vector<std::pair<PageId, std::uint64_t>> entries(
            map_.begin(), map_.end());
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return a.first < b.first;
                  });
        std::vector<PageId> pages;
        for (const auto &[page, count] : entries)
            pages.push_back(page);
        return pages;
    }

    void reset() { map_.clear(); }

  private:
    std::size_t capacity_;
    std::unordered_map<PageId, std::uint64_t> map_;
};

/** Remap-cache LRU on std::list, as first written. */
class ReferenceRemap
{
  public:
    ReferenceRemap(std::size_t capacity, Cycle penalty)
        : capacity_(capacity), penalty_(penalty)
    {
    }

    Cycle lookup(PageId page)
    {
        const auto it = index_.find(page);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits_;
            return 0;
        }
        ++misses_;
        if (lru_.size() >= capacity_) {
            index_.erase(lru_.back());
            lru_.pop_back();
        }
        lru_.push_front(page);
        index_[page] = lru_.begin();
        return penalty_;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::size_t capacity_;
    Cycle penalty_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::list<PageId> lru_;
    std::unordered_map<PageId, std::list<PageId>::iterator> index_;
};

/**
 * A page from a skewed universe: half the draws from a small hot
 * set, the rest from the whole range. Tenant-style high bits
 * (`t << 24`) keep the keys sparse, as in the service.
 */
PageId
drawPage(Rng &rng, std::uint64_t universe)
{
    const std::uint64_t hot = std::max<std::uint64_t>(universe / 16, 1);
    const std::uint64_t page =
        rng.nextBool(0.5) ? rng.nextRange(hot) : rng.nextRange(universe);
    return (rng.nextRange(4) << 24) | page;
}

class FullCounterDiffTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::uint32_t>>
{
};

TEST_P(FullCounterDiffTest, MatchesUnorderedMapReference)
{
    const auto [seed, bits] = GetParam();
    FullCounterTable table(bits);
    ReferenceFullCounters reference(bits);
    Rng rng(seed);

    for (int interval = 0; interval < 40; ++interval) {
        // Vary the touched population so the index grows, is
        // cleared, and is refilled many times.
        const std::uint64_t universe = 8 + rng.nextRange(3000);
        const int accesses = 1 + static_cast<int>(rng.nextRange(6000));
        for (int i = 0; i < accesses; ++i) {
            const PageId page = drawPage(rng, universe);
            const bool is_write = rng.nextBool(0.3);
            table.onAccess(page, is_write);
            reference.onAccess(page, is_write);
        }

        const auto &touched = table.touched();
        ASSERT_EQ(touched.size(), reference.order().size());
        double wr_sum = 0;
        for (std::size_t i = 0; i < touched.size(); ++i) {
            const PageId page = reference.order()[i];
            ASSERT_EQ(touched[i].page, page) << "first-touch order";
            const auto want = reference.countsOf(page);
            ASSERT_EQ(touched[i].counts.reads, want.reads);
            ASSERT_EQ(touched[i].counts.writes, want.writes);
            ASSERT_LE(want.reads, table.maxCount());
            ASSERT_LE(want.writes, table.maxCount());
            const auto got = table.countsOf(page);
            ASSERT_EQ(got.reads, want.reads);
            ASSERT_EQ(got.writes, want.writes);
            wr_sum += want.wrRatio();
        }
        // Integer sums are exact in any order; the Wr-ratio mean is
        // summed in first-touch order, so it may differ from the
        // hash-order reference in the last bits only.
        ASSERT_EQ(table.meanHotness(), reference.meanHotness());
        ASSERT_EQ(table.meanWrRatio(),
                  wr_sum / static_cast<double>(touched.size()));
        ASSERT_NEAR(table.meanWrRatio(), reference.meanWrRatio(),
                    1e-12 * std::max(1.0, reference.meanWrRatio()));
        for (int probe = 0; probe < 200; ++probe) {
            const PageId page = drawPage(rng, 2 * universe);
            ASSERT_EQ(table.countsOf(page).hotness(),
                      reference.countsOf(page).hotness());
        }

        table.reset();
        reference.reset();
        ASSERT_TRUE(table.touched().empty());
        ASSERT_EQ(table.meanHotness(), 0.0);
        for (int probe = 0; probe < 50; ++probe)
            ASSERT_EQ(table.countsOf(drawPage(rng, universe)).hotness(),
                      0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, FullCounterDiffTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(3, 17, 99),
                       ::testing::Values(1u, 2u, 4u, 8u)));

class MeaDiffTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t>>
{
};

TEST_P(MeaDiffTest, MatchesUnorderedMapReference)
{
    const auto [seed, capacity] = GetParam();
    MeaTracker mea(capacity);
    ReferenceMea reference(capacity);
    Rng rng(seed);

    for (int interval = 0; interval < 30; ++interval) {
        const std::uint64_t universe = 1 + rng.nextRange(4 * capacity + 8);
        for (int i = 0; i < 2000; ++i) {
            const PageId page = drawPage(rng, universe);
            mea.onAccess(page);
            reference.onAccess(page);
            if (i % 97 == 0) {
                ASSERT_EQ(mea.hotPages(), reference.hotPages())
                    << "interval " << interval << " access " << i;
            }
        }
        ASSERT_EQ(mea.hotPages(), reference.hotPages());
        ASSERT_LE(mea.hotPages().size(), capacity);
        mea.reset();
        reference.reset();
        ASSERT_TRUE(mea.hotPages().empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, MeaDiffTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(5, 6),
                       ::testing::Values<std::size_t>(1, 2, 3, 32)));

class RemapDiffTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t>>
{
};

TEST_P(RemapDiffTest, MatchesListLruReference)
{
    const auto [seed, capacity] = GetParam();
    RemapCache cache(capacity, 24);
    ReferenceRemap reference(capacity, 24);
    Rng rng(seed);

    // Universes from below to far above the capacity: long hit runs,
    // then many evict/re-insert cycles through the index.
    for (int phase = 0; phase < 12; ++phase) {
        const std::uint64_t universe =
            1 + rng.nextRange(3 * capacity + 4);
        for (int i = 0; i < 5000; ++i) {
            const PageId page = drawPage(rng, universe);
            ASSERT_EQ(cache.lookup(page), reference.lookup(page))
                << "phase " << phase << " access " << i;
        }
    }
    EXPECT_EQ(cache.hits(), reference.hits());
    EXPECT_EQ(cache.misses(), reference.misses());
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.misses(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, RemapDiffTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 8),
                       ::testing::Values<std::size_t>(1, 2, 3, 64, 500)));

TEST(PageIndex, MatchesUnorderedMapUnderChurn)
{
    // Dense keys in a small range collide and form long probe runs,
    // which exercises the backward-shift erase.
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        PageIndex index(2);
        std::unordered_map<PageId, std::uint32_t> reference;
        Rng rng(seed);
        for (int i = 0; i < 200000; ++i) {
            const std::uint64_t range = i < 100000 ? 64 : 4096;
            const PageId page = rng.nextRange(range) * (seed == 3 ? 1 : 4096);
            const auto value = static_cast<std::uint32_t>(i);
            switch (rng.nextRange(3)) {
              case 0: {
                const auto [it, fresh] = reference.emplace(page, value);
                ASSERT_EQ(index.intern(page, value), it->second);
                break;
              }
              case 1:
                reference.erase(page);
                index.erase(page);
                break;
              default: {
                const auto it = reference.find(page);
                ASSERT_EQ(index.find(page),
                          it == reference.end() ? PageIndex::none
                                                : it->second);
              }
            }
            ASSERT_EQ(index.size(), reference.size());
        }
        for (const auto &[page, value] : reference)
            ASSERT_EQ(index.find(page), value);
        std::vector<PageId> keys;
        for (const auto &[page, value] : reference)
            keys.push_back(page);
        index.clear(keys, [](PageId page) { return page; });
        ASSERT_EQ(index.size(), 0u);
        for (const PageId page : keys)
            ASSERT_EQ(index.find(page), PageIndex::none);
    }
}

TEST(IssueOrder, MatchesTimeCoreHeap)
{
    // Each pick advances the picked core by a small random step, so
    // equal ready times are frequent; cores finish at random.
    for (const std::size_t cores : {1u, 2u, 5u, 16u}) {
        Rng rng(cores);
        std::vector<std::uint64_t> ready(cores);
        using Entry = std::pair<std::uint64_t, std::size_t>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
            heap;
        for (std::size_t c = 0; c < cores; ++c) {
            ready[c] = rng.nextRange(3);
            heap.push({ready[c], c});
        }
        std::vector<int> left(cores, 2000);
        while (!heap.empty()) {
            const auto [time, core] = heap.top();
            heap.pop();
            ASSERT_EQ(earliestReady(ready), core);
            ASSERT_EQ(ready[core], time);
            if (--left[core] == 0) {
                ready[core] = finishedCore;
            } else {
                ready[core] = time + rng.nextRange(3);
                heap.push({ready[core], core});
            }
        }
        ASSERT_EQ(earliestReady(ready), cores);
    }
    EXPECT_EQ(earliestReady({}), 0u);
}

} // namespace
} // namespace ramp
