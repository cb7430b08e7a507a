/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (trace synthesis, workload
 * behaviour models) draw from this generator so that every experiment
 * is exactly reproducible from a seed. The engine is xoshiro256**,
 * which is fast, has a 256-bit state, and passes BigCrush.
 *
 * The draws trace synthesis makes per record (next, uniform, below,
 * range, bernoulli) are defined inline here; their streams are pinned
 * by tests/common/test_rng.cc and every synthetic trace depends on
 * them bit for bit.
 */

#ifndef PIPEDEPTH_COMMON_RNG_HH
#define PIPEDEPTH_COMMON_RNG_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace pipedepth
{

/**
 * A deterministic, seedable random number generator (xoshiro256**).
 *
 * Distribution helpers (uniform, geometric-ish discrete, weighted
 * choice, bernoulli) cover everything trace synthesis needs without
 * pulling in the slower std::distributions, whose results are also not
 * guaranteed identical across standard library implementations.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /**
     * Uniform integer in [0, n). Requires n > 0. Rejection sampling
     * against limit = UINT64_MAX - UINT64_MAX % n avoids modulo bias.
     */
    std::uint64_t
    below(std::uint64_t n)
    {
        PP_ASSERT(n > 0, "Rng::below requires n > 0");
        std::uint64_t v = next();
        // limit >= UINT64_MAX - (n - 1), so only a draw above
        // UINT64_MAX - n can be rejected; skip the division otherwise.
        if (v > UINT64_MAX - n) {
            const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
            while (v >= limit)
                v = next();
        }
        return (n & (n - 1)) == 0 ? v & (n - 1) : v % n;
    }

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        PP_ASSERT(lo <= hi, "Rng::range requires lo <= hi");
        // Unsigned, so spans past INT64_MAX wrap instead of overflowing.
        const auto base = static_cast<std::uint64_t>(lo);
        const auto span = static_cast<std::uint64_t>(hi) - base + 1;
        if (span == 0) // full 64-bit range
            return static_cast<std::int64_t>(next());
        return static_cast<std::int64_t>(base + below(span));
    }

    /** True with probability p (clamped to [0, 1]). */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Sample an index from a discrete distribution given by
     * non-negative weights. Requires at least one positive weight.
     *
     * @param weights relative (unnormalized) weights
     * @return index in [0, weights.size())
     */
    std::size_t weighted(const std::vector<double> &weights);

    /**
     * Geometric sample: number of failures before the first success of
     * a bernoulli(p) process; p is clamped to (0, 1]. A caller drawing
     * many samples at one p should hold a Geometric instead.
     */
    std::uint64_t geometric(double p);

    /** Standard normal via Box-Muller (deterministic pairing). */
    double gaussian();

    /** Fork a statistically independent child stream. */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    double cached_gauss_ = 0.0;
    bool has_cached_gauss_ = false;
};

/**
 * Rng::geometric at one fixed p, with log1p(-p) taken once instead of
 * per draw. draw(rng) returns what rng.geometric(p) would, draw for
 * draw.
 */
class Geometric
{
  public:
    explicit Geometric(double p);

    std::uint64_t draw(Rng &rng) const;

  private:
    double log_q_; //!< log1p(-p), p clamped; 0 when p >= 1 (no draw)
};

} // namespace pipedepth

#endif // PIPEDEPTH_COMMON_RNG_HH
