/**
 * @file
 * Tests for the depth-sweep experiment driver.
 */

#include <gtest/gtest.h>

#include "sweep/depth_sweep.hh"

namespace pipedepth
{
namespace
{

SweepOptions
fastOptions()
{
    SweepOptions opt;
    opt.trace_length = 60000;
    opt.warmup_instructions = 30000;
    return opt;
}

const SweepResult &
gccSweep()
{
    static const SweepResult sweep =
        runDepthSweep(findWorkload("gcc95"), fastOptions());
    return sweep;
}

TEST(DepthSweep, CoversRequestedRange)
{
    const SweepResult &s = gccSweep();
    ASSERT_EQ(s.runs.size(), 24u);
    EXPECT_EQ(s.runs.front().depth, 2);
    EXPECT_EQ(s.runs.back().depth, 25);
    const auto d = s.depths();
    for (std::size_t i = 0; i + 1 < d.size(); ++i)
        EXPECT_EQ(d[i] + 1.0, d[i + 1]);
}

TEST(DepthSweep, MetricsPositive)
{
    const SweepResult &s = gccSweep();
    for (double m : {1.0, 2.0, 3.0}) {
        for (bool g : {false, true}) {
            for (double v : s.metric(m, g))
                EXPECT_GT(v, 0.0);
        }
    }
}

TEST(DepthSweep, LeakageCalibratedAtReference)
{
    const SweepResult &s = gccSweep();
    const SimResult &ref = s.runs[static_cast<std::size_t>(
        s.options.reference_depth - s.options.min_depth)];
    EXPECT_NEAR(s.power_model.power(ref).leakageFraction(true),
                s.options.leakage_fraction, 1e-9);
}

TEST(DepthSweep, Bips3GatedHasInteriorOptimum)
{
    bool interior = false;
    const double p = gccSweep().cubicFitOptimum(3.0, true, &interior);
    EXPECT_TRUE(interior);
    EXPECT_GT(p, 3.0);
    EXPECT_LT(p, 12.0);
}

TEST(DepthSweep, BipsPerWattHasNoInteriorOptimum)
{
    bool interior = true;
    const double p = gccSweep().cubicFitOptimum(1.0, true, &interior);
    EXPECT_FALSE(interior);
    EXPECT_DOUBLE_EQ(p, 2.0);
}

TEST(DepthSweep, PerformanceOptimumDeeperThanPowerAware)
{
    bool i1 = false, i2 = false;
    const double perf = gccSweep().cubicFitPerformanceOptimum(&i1);
    const double m3 = gccSweep().cubicFitOptimum(3.0, true, &i2);
    ASSERT_TRUE(i1);
    ASSERT_TRUE(i2);
    EXPECT_GT(perf, m3);
}

TEST(DepthSweep, TheoryCurveTracksSimulation)
{
    double r2 = 0.0;
    const auto curve = gccSweep().theoryCurve(3.0, true, &r2);
    ASSERT_EQ(curve.size(), gccSweep().runs.size());
    EXPECT_GT(r2, 0.5);
    for (double v : curve)
        EXPECT_GT(v, 0.0);
}

TEST(DepthSweep, TheoryScaleIsLeastSquares)
{
    // Multiplying the theory curve by any other factor must not
    // improve the fit.
    const auto sim = gccSweep().metric(3.0, true);
    const auto th = gccSweep().theoryCurve(3.0, true);
    auto sse = [&](double scale) {
        double s = 0.0;
        for (std::size_t i = 0; i < sim.size(); ++i) {
            const double e = sim[i] - scale * th[i];
            s += e * e;
        }
        return s;
    };
    EXPECT_LE(sse(1.0), sse(1.05));
    EXPECT_LE(sse(1.0), sse(0.95));
}

TEST(DepthSweep, LatchExponentNearPaperValue)
{
    // Fig. 3: unit exponent 1.3 -> overall ~ 1.1.
    const double k = measuredLatchExponent(gccSweep());
    EXPECT_GT(k, 0.95);
    EXPECT_LT(k, 1.3);
}

TEST(DepthSweepDeath, BadOptionsRejected)
{
    SweepOptions opt = fastOptions();
    opt.reference_depth = 1; // outside [min, max]
    EXPECT_DEATH(runDepthSweep(findWorkload("gcc95"), opt),
                 "reference depth");
}

} // namespace
} // namespace pipedepth
