/**
 * @file
 * Tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "common/rng.hh"

namespace pipedepth
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDifferentStreams)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.5);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.5);
    }
}

TEST(Rng, BelowIsUnbiased)
{
    Rng rng(11);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.below(10)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n));
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-0.5));
        EXPECT_TRUE(rng.bernoulli(1.5));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(19);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng rng(23);
    std::vector<double> weights{1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weighted(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.01);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(29);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricPOneIsZero)
{
    Rng rng(31);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1.0), 0u);
}

/** Rng::below written out as a textbook: bound, reject, v % n. */
std::uint64_t
textbookBelow(Rng &rng, std::uint64_t n, std::uint64_t *rejected)
{
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    std::uint64_t v = rng.next();
    while (v >= limit) {
        ++*rejected;
        v = rng.next();
    }
    return v % n;
}

/**
 * Sizes for the textbook comparisons: the powers of two trace
 * synthesis draws (16 registers, 4096-byte regions), odd sizes, and
 * 2^63 + 1, where about half the draws are rejected, so the rejection
 * path runs too.
 */
constexpr std::uint64_t kSizes[] = {
    1, 2, 3, 16, 4096, (1ull << 32) + 1, 1ull << 63, (1ull << 63) + 1,
    UINT64_MAX};

TEST(Rng, BelowIsTheTextbookStream)
{
    // Every synthetic trace depends on these draws bit for bit, so the
    // fast paths (no division for draws that cannot be rejected, a
    // mask for powers of two) must return the textbook values and
    // consume the same raw draws.
    for (std::uint64_t n : kSizes) {
        Rng fast(n), textbook(n);
        std::uint64_t rejected = 0;
        for (int i = 0; i < 100000; ++i) {
            ASSERT_EQ(fast.below(n), textbookBelow(textbook, n, &rejected))
                << "n " << n << ", draw " << i;
        }
        EXPECT_EQ(fast.next(), textbook.next()) << "n " << n;
        if (n == (1ull << 63) + 1) {
            EXPECT_GT(rejected, 40000u);
        }
    }
}

TEST(Rng, RangeIsTheTextbookStream)
{
    // range(lo, lo + n - 1) is lo + below(n); a span of 2^64 is one raw
    // draw.
    for (std::uint64_t n : kSizes) {
        const std::int64_t lo = n > (1ull << 62) ? INT64_MIN : -3;
        const auto hi = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(lo) + (n - 1));
        Rng fast(n), textbook(n);
        std::uint64_t rejected = 0;
        for (int i = 0; i < 100000; ++i) {
            ASSERT_EQ(fast.range(lo, hi),
                      static_cast<std::int64_t>(
                          static_cast<std::uint64_t>(lo) +
                          textbookBelow(textbook, n, &rejected)))
                << "[" << lo << ", " << hi << "], draw " << i;
        }
    }
    Rng fast(5), raw(5);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(fast.range(INT64_MIN, INT64_MAX),
                  static_cast<std::int64_t>(raw.next()));
}

TEST(Rng, GeometricStreamsPinned)
{
    // First draws at seed 2024 for the dependence-distance parameters
    // trace synthesis uses (p = 1 / mean_dep_dist), and the p <= 0
    // clamp to 1e-12.
    const struct
    {
        double p;
        std::uint64_t draws[8];
    } pinned[] = {
        {1.0, {0, 0, 0, 0, 0, 0, 0, 0}},
        {0.5, {0, 2, 0, 0, 2, 0, 0, 0}},
        {1.0 / 3.4, {0, 4, 0, 0, 4, 0, 1, 0}},
        {1.0 / 5.5, {0, 7, 0, 0, 7, 1, 2, 1}},
        {1e-12,
         {57409739771ull, 1523736351851ull, 74782750602ull,
          174015194440ull, 1485674526854ull, 280868172492ull,
          501429553753ull, 297069006356ull}},
    };
    for (const auto &pin : pinned) {
        Rng rng(2024);
        for (std::uint64_t expected : pin.draws)
            EXPECT_EQ(rng.geometric(pin.p), expected) << "p " << pin.p;
    }
}

TEST(RngDeath, EmptyBoundsPanic)
{
    Rng rng(1);
    EXPECT_DEATH(rng.below(0), "n > 0");
    EXPECT_DEATH(rng.range(2, 1), "lo <= hi");
}

TEST(Rng, GaussianMoments)
{
    Rng rng(37);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ForkDiverges)
{
    Rng a(41);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

} // namespace
} // namespace pipedepth
