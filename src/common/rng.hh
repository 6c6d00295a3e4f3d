/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component of RAMP (trace synthesis, FaultSim's
 * Monte-Carlo engine) draws from an explicitly seeded Rng so that every
 * experiment is exactly reproducible. The generator is xoshiro256**,
 * seeded through SplitMix64 per its authors' recommendation.
 */

#ifndef RAMP_COMMON_RNG_HH
#define RAMP_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace ramp
{

/** SplitMix64's golden-gamma state increment. */
inline constexpr std::uint64_t splitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/**
 * One SplitMix64 step (Steele et al.): advance `state` by the golden
 * gamma and return the mixed value. The one copy behind Rng seeding,
 * runner::taskSeed(), and the service's tenant routing and streams.
 */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += splitMix64Gamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** xoshiro256** pseudo-random generator with convenience draws. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t nextRange(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

    /**
     * Poisson draw with the given mean.
     *
     * Uses Knuth multiplication for small means and a normal
     * approximation for large ones; adequate for FaultSim event counts.
     */
    std::uint64_t nextPoisson(double mean);

    /** Exponential draw with the given rate (mean 1/rate). */
    double nextExponential(double rate);

    /** Standard normal draw (Box-Muller). */
    double nextGaussian();

    /** Split off an independent stream (for per-core generators). */
    Rng split();

  private:
    std::uint64_t s_[4];
};

/**
 * Zipf-distributed integer sampler over [0, n).
 *
 * Rank r is drawn with probability proportional to 1 / (r + 1)^alpha.
 * A precomputed inverse-CDF table gives O(log n) sampling; alpha = 0
 * degenerates to the uniform distribution. Used to synthesise the
 * skewed page-hotness populations the paper's placement policies rely
 * on.
 */
class ZipfSampler
{
  public:
    /** Build a sampler over n items with skew alpha >= 0. */
    ZipfSampler(std::uint64_t n, double alpha);

    /** Draw a rank in [0, n); rank 0 is the hottest. */
    std::uint64_t sample(Rng &rng) const;

    /** Number of items. */
    std::uint64_t size() const { return n_; }

    /** Skew parameter. */
    double alpha() const { return alpha_; }

    /** Probability mass of a given rank. */
    double probability(std::uint64_t rank) const;

  private:
    std::uint64_t n_;
    double alpha_;
    /** cdf_[i] = P(rank <= i); monotone, final entry 1.0. */
    std::vector<double> cdf_;
};

} // namespace ramp

#endif // RAMP_COMMON_RNG_HH
