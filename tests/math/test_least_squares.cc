/**
 * @file
 * Tests for linear least squares and the fitting helpers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "math/least_squares.hh"

namespace pipedepth
{
namespace
{

TEST(SolveLinear, TwoByTwo)
{
    // 2x + y = 5; x - y = 1 -> x = 2, y = 1
    const auto x =
        solveLinear({2.0, 1.0, 1.0, -1.0}, {5.0, 1.0});
    ASSERT_EQ(x.size(), 2u);
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SolveLinear, NeedsPivoting)
{
    // First pivot is zero; must row-swap.
    const auto x = solveLinear({0.0, 1.0, 1.0, 0.0}, {3.0, 4.0});
    EXPECT_NEAR(x[0], 4.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinearDeath, SingularSystem)
{
    EXPECT_DEATH(solveLinear({1.0, 2.0, 2.0, 4.0}, {1.0, 2.0}),
                 "singular");
}

TEST(FitPolynomial, ExactRecoveryOfCubic)
{
    const Poly truth({1.0, -2.0, 0.5, 0.25});
    std::vector<double> xs, ys;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(static_cast<double>(i));
        ys.push_back(truth(static_cast<double>(i)));
    }
    const Poly fit = fitPolynomial(xs, ys, 3);
    for (int k = 0; k <= 3; ++k)
        EXPECT_NEAR(fit.coeff(k), truth.coeff(k), 1e-8);
}

TEST(FitPolynomial, LineThroughTwoPoints)
{
    const Poly fit = fitPolynomial({0.0, 2.0}, {1.0, 5.0}, 1);
    EXPECT_NEAR(fit.coeff(0), 1.0, 1e-12);
    EXPECT_NEAR(fit.coeff(1), 2.0, 1e-12);
}

TEST(FitPolynomial, OverdeterminedAveragesNoise)
{
    Rng rng(99);
    std::vector<double> xs, ys;
    for (int i = 0; i < 400; ++i) {
        const double x = rng.uniform(0.0, 10.0);
        xs.push_back(x);
        ys.push_back(3.0 * x + 1.0 + rng.gaussian() * 0.1);
    }
    const Poly fit = fitPolynomial(xs, ys, 1);
    EXPECT_NEAR(fit.coeff(1), 3.0, 0.02);
    EXPECT_NEAR(fit.coeff(0), 1.0, 0.05);
}

TEST(FitPowerLaw, ExactPowerLaw)
{
    std::vector<double> xs, ys;
    for (double x : {2.0, 5.0, 8.0, 13.0, 25.0}) {
        xs.push_back(x);
        ys.push_back(4.2 * std::pow(x, 1.3));
    }
    const PowerLawFit fit = fitPowerLaw(xs, ys);
    EXPECT_NEAR(fit.k, 1.3, 1e-10);
    EXPECT_NEAR(fit.c, 4.2, 1e-9);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitPowerLawDeath, RejectsNonPositive)
{
    EXPECT_DEATH(fitPowerLaw({1.0, -2.0}, {1.0, 1.0}), "positive");
}

TEST(FitCubicPeak, RecoversInteriorPeak)
{
    // -(x-8)^2 has its max at 8; a cubic fit captures it.
    std::vector<double> xs, ys;
    for (int p = 2; p <= 25; ++p) {
        xs.push_back(p);
        ys.push_back(-(p - 8.0) * (p - 8.0));
    }
    const CubicPeak peak = fitCubicPeak(xs, ys);
    EXPECT_TRUE(peak.interior);
    EXPECT_NEAR(peak.x, 8.0, 0.2);
}

TEST(FitCubicPeak, MonotoneDataReportsEndpoint)
{
    std::vector<double> xs, ys;
    for (int p = 2; p <= 25; ++p) {
        xs.push_back(p);
        ys.push_back(-static_cast<double>(p));
    }
    const CubicPeak peak = fitCubicPeak(xs, ys);
    EXPECT_FALSE(peak.interior);
    EXPECT_DOUBLE_EQ(peak.x, 2.0);
}

TEST(FitCubicPeak, FewerThanFourSamplesHaveNoPeak)
{
    // Three points leave a cubic undetermined: "no peak", not an abort.
    const CubicPeak peak = fitCubicPeak({2.0, 3.0, 4.0}, {1.0, 3.0, 2.0});
    EXPECT_EQ(peak.x, 0.0);
    EXPECT_FALSE(peak.interior);
    EXPECT_EQ(fitCubicPeak({}, {}).x, 0.0);
}

TEST(FitScaleFactor, MatchesClosedForm)
{
    const std::vector<double> t{1.0, 2.0, 3.0};
    const std::vector<double> y{2.1, 3.9, 6.1};
    const double s = fitScaleFactor(y, t);
    // d/ds sum (y - s t)^2 = 0 -> s = (y.t)/(t.t)
    EXPECT_NEAR(s, (2.1 + 7.8 + 18.3) / 14.0, 1e-12);
}

TEST(RSquared, PerfectAndMeanPredictions)
{
    const std::vector<double> y{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(rSquared(y, y), 1.0);
    const std::vector<double> mean(4, 2.5);
    EXPECT_NEAR(rSquared(y, mean), 0.0, 1e-12);
}

} // namespace
} // namespace pipedepth
