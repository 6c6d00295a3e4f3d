#include "migration/counters.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ramp
{

double
FullCounterTable::Counts::wrRatio() const
{
    return static_cast<double>(writes) /
           static_cast<double>(std::max<std::uint32_t>(reads, 1));
}

FullCounterTable::FullCounterTable(std::uint32_t bits)
{
    if (bits == 0 || bits > 31)
        ramp_fatal("counter width must be in [1, 31] bits");
    maxCount_ = (1U << bits) - 1;
}

FullCounterTable::Counts
FullCounterTable::countsOf(PageId page) const
{
    const std::uint32_t at = index_.find(page);
    return at == PageIndex::none ? Counts{} : touched_[at].counts;
}

double
FullCounterTable::meanHotness() const
{
    if (touched_.empty())
        return 0.0;
    double sum = 0;
    for (const Entry &entry : touched_)
        sum += entry.counts.hotness();
    return sum / static_cast<double>(touched_.size());
}

double
FullCounterTable::meanWrRatio() const
{
    if (touched_.empty())
        return 0.0;
    double sum = 0;
    for (const Entry &entry : touched_)
        sum += entry.counts.wrRatio();
    return sum / static_cast<double>(touched_.size());
}

void
FullCounterTable::reset()
{
    index_.clear(touched_, [](const Entry &entry) { return entry.page; });
    touched_.clear();
}

std::uint64_t
FullCounterTable::storageBytes(std::uint64_t pages, std::uint32_t bits,
                               bool split_read_write)
{
    const std::uint64_t per_page = split_read_write ? 2 * bits : bits;
    return (pages * per_page + 7) / 8;
}

MeaTracker::MeaTracker(std::size_t entries)
    : capacity_(entries)
{
    if (entries == 0)
        ramp_fatal("MEA tracker needs at least one entry");
    entries_.reserve(entries);
}

void
MeaTracker::onAccess(PageId page)
{
    for (Entry &entry : entries_) {
        if (entry.page == page) {
            ++entry.count;
            return;
        }
    }
    if (entries_.size() < capacity_) {
        entries_.push_back({page, 1});
        return;
    }
    // Misra-Gries step: decrement everyone, drop zeros.
    for (Entry &entry : entries_)
        --entry.count;
    std::erase_if(entries_,
                  [](const Entry &entry) { return entry.count == 0; });
}

std::vector<PageId>
MeaTracker::hotPages() const
{
    std::vector<Entry> entries = entries_;
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.page < b.page;
              });
    std::vector<PageId> pages;
    pages.reserve(entries.size());
    for (const Entry &entry : entries)
        pages.push_back(entry.page);
    return pages;
}

void
MeaTracker::reset()
{
    entries_.clear();
}

std::uint64_t
MeaTracker::storageBytes(std::size_t entries)
{
    // Page number (6 B covers 48-bit addressing) + 2 B counter.
    return entries * 8;
}

RemapCache::RemapCache(std::size_t entries, Cycle miss_penalty)
    : capacity_(entries), missPenalty_(miss_penalty)
{
    if (entries == 0)
        ramp_fatal("remap cache needs at least one entry");
    if (entries >= nil)
        ramp_fatal("remap cache is limited to 2^32 - 1 entries");
}

void
RemapCache::unlink(std::uint32_t slot)
{
    const std::uint32_t before = prev_[slot];
    const std::uint32_t after = next_[slot];
    (before == nil ? head_ : next_[before]) = after;
    (after == nil ? tail_ : prev_[after]) = before;
}

void
RemapCache::pushFront(std::uint32_t slot)
{
    prev_[slot] = nil;
    next_[slot] = head_;
    (head_ == nil ? tail_ : prev_[head_]) = slot;
    head_ = slot;
}

Cycle
RemapCache::lookup(PageId page)
{
    std::uint32_t slot = index_.find(page);
    if (slot != PageIndex::none) {
        if (slot != head_) {
            unlink(slot);
            pushFront(slot);
        }
        ++hits_;
        return 0;
    }
    ++misses_;
    if (pages_.size() >= capacity_) {
        // Full: the LRU slot takes the new page.
        slot = tail_;
        index_.erase(pages_[slot]);
        unlink(slot);
        pages_[slot] = page;
    } else {
        slot = static_cast<std::uint32_t>(pages_.size());
        pages_.push_back(page);
        prev_.push_back(nil);
        next_.push_back(nil);
    }
    pushFront(slot);
    index_.intern(page, slot);
    return missPenalty_;
}

double
RemapCache::hitRatio() const
{
    const std::uint64_t total = hits_ + misses_;
    if (total == 0)
        return 0.0;
    return static_cast<double>(hits_) / static_cast<double>(total);
}

std::uint64_t
RemapCache::storageBytes(std::size_t entries)
{
    return entries * 8;
}

} // namespace ramp
