/**
 * @file
 * Set-associative write-back cache model.
 *
 * Building block of the cache-filtering pipeline (Moola substitute,
 * paper Section 3.1): CPU-level access streams pass through L1/L2
 * models and only misses and dirty writebacks reach the memory-level
 * trace consumed by the HMA simulator.
 */

#ifndef RAMP_CACHE_CACHE_HH
#define RAMP_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ramp
{

/** Geometry of one cache. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 16 * 1024;

    /** Ways per set. */
    std::uint32_t associativity = 4;

    /** Line size in bytes (64 throughout the paper). */
    std::uint64_t lineBytes = lineSize;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const;
};

/** Event counters of one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    /** Miss ratio in [0, 1]. */
    double missRatio() const;
};

/**
 * LRU set-associative cache, write-back + write-allocate.
 *
 * The model tracks tags and dirty bits only (no data). Each access
 * reports whether it hit and whether a dirty victim was written back.
 */
class SetAssocCache
{
  public:
    /** Outcome of one access. */
    struct AccessResult
    {
        /** True when the line was present. */
        bool hit = false;

        /** True when a dirty victim was evicted. */
        bool writeback = false;

        /** Line-aligned address of the written-back victim. */
        Addr writebackAddr = 0;
    };

    /** Build an empty cache; the config must be self-consistent. */
    explicit SetAssocCache(const CacheConfig &config);

    /** Look up / fill one address (allocates on miss). */
    AccessResult access(Addr addr, bool is_write);

    /** True when the line is currently resident. */
    bool contains(Addr addr) const;

    /** Invalidate everything, returning dirty lines as writebacks. */
    std::vector<Addr> flush();

    /** Event counters. */
    const CacheStats &stats() const { return stats_; }

    /** Geometry. */
    const CacheConfig &config() const { return config_; }

  private:
    /** @{ @name Packed way: line number << 2 | dirtyBit | validBit */
    static constexpr std::uint64_t validBit = 1;
    static constexpr std::uint64_t dirtyBit = 2;
    /** @} */

    CacheConfig config_;
    std::uint64_t numSets_;
    /** numSets x associativity packed ways; way 0 of a set is MRU. */
    std::vector<std::uint64_t> ways_;
    CacheStats stats_;
};

} // namespace ramp

#endif // RAMP_CACHE_CACHE_HH
