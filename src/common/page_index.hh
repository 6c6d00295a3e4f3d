/**
 * @file
 * Flat PageId -> 32-bit value table for per-access page state.
 *
 * Open addressing with linear probing on a multiplicative hash (the
 * Fibonacci constant): tenant ids (`t << 24`) make raw PageIds too
 * sparse to index directly, but the hash spreads them evenly. The
 * load factor stays at or below 1/2, erase shifts the rest of the
 * probe run back (no tombstones), and the table never shrinks, so a
 * structure that is cleared every interval keeps its buckets.
 */

#ifndef RAMP_COMMON_PAGE_INDEX_HH
#define RAMP_COMMON_PAGE_INDEX_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ramp
{

class PageIndex
{
  public:
    /** find() result for an absent page. */
    static constexpr std::uint32_t none = UINT32_MAX;

    /** @param buckets initial bucket count, a power of two >= 2 */
    explicit PageIndex(std::size_t buckets = 16) { rehash(buckets); }

    /** The page's value, or none. */
    std::uint32_t find(PageId page) const
    {
        const std::size_t i = bucket(page);
        return keys_[i] == page ? values_[i] : none;
    }

    /**
     * The page's value; a new page is mapped to `value` first.
     * `page` must not be invalidPage (the empty-bucket marker).
     */
    std::uint32_t intern(PageId page, std::uint32_t value)
    {
        const std::size_t i = bucket(page);
        if (keys_[i] == page)
            return values_[i];
        keys_[i] = page;
        values_[i] = value;
        if (2 * ++size_ > keys_.size()) // load factor <= 1/2
            rehash(2 * keys_.size());
        return value;
    }

    /** Drop a page (no-op when absent). */
    void erase(PageId page)
    {
        std::size_t hole = bucket(page);
        if (keys_[hole] != page)
            return;
        --size_;
        // Backward shift: pull later members of the probe run into
        // the hole unless their home lies cyclically in (hole, j].
        for (std::size_t j = (hole + 1) & mask_;
             keys_[j] != invalidPage; j = (j + 1) & mask_) {
            const std::size_t home = homeOf(keys_[j]);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                keys_[hole] = keys_[j];
                values_[hole] = values_[j];
                hole = j;
            }
        }
        keys_[hole] = invalidPage;
    }

    /**
     * Empty the table given every page it holds (in any order):
     * touches only their buckets, not the whole array.
     */
    template <typename Pages, typename Key>
    void clear(const Pages &pages, Key key_of)
    {
        // Locate every bucket before emptying any: an emptied
        // bucket would cut the probe runs of the ones after it.
        cleared_.clear();
        for (const auto &entry : pages)
            cleared_.push_back(bucket(key_of(entry)));
        for (const std::size_t i : cleared_)
            keys_[i] = invalidPage;
        size_ = 0;
    }

    /** Pages held. */
    std::size_t size() const { return size_; }

  private:
    std::size_t homeOf(PageId page) const
    {
        return static_cast<std::size_t>(
            (page * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** The page's bucket, or the empty one ending its probe run. */
    std::size_t bucket(PageId page) const
    {
        std::size_t i = homeOf(page);
        while (keys_[i] != page && keys_[i] != invalidPage)
            i = (i + 1) & mask_;
        return i;
    }

    void rehash(std::size_t buckets)
    {
        std::vector<PageId> keys(buckets, invalidPage);
        std::vector<std::uint32_t> values(buckets);
        keys.swap(keys_);
        values.swap(values_);
        mask_ = buckets - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
        for (std::size_t k = 0; k < keys.size(); ++k) {
            if (keys[k] == invalidPage)
                continue;
            const std::size_t i = bucket(keys[k]);
            keys_[i] = keys[k];
            values_[i] = values[k];
        }
    }

    std::vector<PageId> keys_; ///< invalidPage marks an empty bucket
    std::vector<std::uint32_t> values_;
    std::vector<std::size_t> cleared_; ///< clear()'s scratch
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace ramp

#endif // RAMP_COMMON_PAGE_INDEX_HH
