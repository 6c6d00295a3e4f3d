#include "cache/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ramp
{

std::uint64_t
CacheConfig::numSets() const
{
    return sizeBytes / (lineBytes * associativity);
}

double
CacheStats::missRatio() const
{
    if (accesses == 0)
        return 0.0;
    return static_cast<double>(misses) / static_cast<double>(accesses);
}

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : config_(config)
{
    if (config.lineBytes == 0 || config.associativity == 0)
        ramp_fatal("cache line size and associativity must be > 0");
    if (config.sizeBytes %
            (config.lineBytes * config.associativity) != 0)
        ramp_fatal("cache size must be a multiple of line * ways");
    numSets_ = config.numSets();
    if (numSets_ == 0)
        ramp_fatal("cache must have at least one set");
    ways_.assign(numSets_ * config.associativity, 0);
}

SetAssocCache::AccessResult
SetAssocCache::access(Addr addr, bool is_write)
{
    ++stats_.accesses;
    const std::uint64_t line = addr / config_.lineBytes;
    const std::size_t ways = config_.associativity;
    std::uint64_t *const set = &ways_[(line % numSets_) * ways];
    const std::uint64_t resident = line << 2 | validBit;
    const std::uint64_t dirty = is_write ? dirtyBit : 0;

    AccessResult result;
    for (std::size_t way = 0; way < ways; ++way) {
        if ((set[way] & ~dirtyBit) == resident) {
            // Hit: move to MRU, update dirtiness.
            const std::uint64_t hit = set[way] | dirty;
            std::copy_backward(set, set + way, set + way + 1);
            set[0] = hit;
            ++stats_.hits;
            result.hit = true;
            return result;
        }
    }

    // Miss: evict LRU, allocate at MRU.
    ++stats_.misses;
    const std::uint64_t victim = set[ways - 1];
    if ((victim & validBit) != 0) {
        ++stats_.evictions;
        if ((victim & dirtyBit) != 0) {
            ++stats_.writebacks;
            result.writeback = true;
            result.writebackAddr = (victim >> 2) * config_.lineBytes;
        }
    }
    std::copy_backward(set, set + ways - 1, set + ways);
    set[0] = resident | dirty;
    return result;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const std::uint64_t line = addr / config_.lineBytes;
    const std::size_t ways = config_.associativity;
    const std::uint64_t *const set = &ways_[(line % numSets_) * ways];
    const std::uint64_t resident = line << 2 | validBit;
    return std::any_of(set, set + ways, [&](std::uint64_t way) {
        return (way & ~dirtyBit) == resident;
    });
}

std::vector<Addr>
SetAssocCache::flush()
{
    // Set-major, MRU to LRU within a set.
    std::vector<Addr> dirty;
    for (std::uint64_t &way : ways_) {
        if ((way & (validBit | dirtyBit)) == (validBit | dirtyBit)) {
            dirty.push_back((way >> 2) * config_.lineBytes);
            ++stats_.writebacks;
        }
        way = 0;
    }
    return dirty;
}

} // namespace ramp
