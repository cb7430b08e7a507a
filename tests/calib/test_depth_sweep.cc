/**
 * @file
 * Tests for the depth-sweep experiment driver.
 */

#include <gtest/gtest.h>

#include <optional>

#include "core/metric.hh"
#include "math/least_squares.hh"
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
        runDepthSweep(findWorkload("gcc95"), fastOptions()).value();
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

TEST(DepthSweep, FitsWithThreeLiveDepthsReportNoOptimum)
{
    // A sweep over depths 7..9, as a narrow daemon range asks for. A
    // cubic needs 4 points, so both fits answer "no optimum" (0)
    // instead of aborting.
    SweepOptions opt = fastOptions();
    opt.min_depth = 7;
    opt.max_depth = 9;
    const std::optional<SweepResult> s =
        runDepthSweep(findWorkload("gcc95"), opt);
    ASSERT_TRUE(s.has_value());
    ASSERT_EQ(s->depths().size(), 3u);

    bool interior = true;
    EXPECT_EQ(s->cubicFitOptimum(3.0, true, &interior), 0.0);
    EXPECT_FALSE(interior);
    interior = true;
    EXPECT_EQ(s->cubicFitPerformanceOptimum(&interior), 0.0);
    EXPECT_FALSE(interior);
}

TEST(DepthSweep, TheoryModelIsTheHandCalibration)
{
    // The calibration benches used to spell out: beta 1.3, 15%
    // leakage at depth 8, c_mem zeroed unless extended. theoryCurve
    // is that model's metric, scaled by one least-squares factor.
    const SweepResult &s = gccSweep();
    ASSERT_GT(s.extracted.c_mem, 0.0);
    const auto sim_depths = s.depths();
    for (bool gated : {false, true}) {
        for (bool extended : {false, true}) {
            MachineParams mp = s.extracted;
            if (!extended)
                mp.c_mem = 0.0;
            PowerParams pw;
            pw.gating =
                gated ? ClockGating::FineGrained : ClockGating::None;
            pw.beta = 1.3;
            pw = PowerModel::calibrateLeakage(mp, pw, 0.15, 8.0);

            const TheoryModel th = s.theoryModel(gated, extended);
            EXPECT_EQ(th.machine.alpha, mp.alpha);
            EXPECT_EQ(th.machine.gamma, mp.gamma);
            EXPECT_EQ(th.machine.hazard_ratio, mp.hazard_ratio);
            EXPECT_EQ(th.machine.t_p, mp.t_p);
            EXPECT_EQ(th.machine.t_o, mp.t_o);
            EXPECT_EQ(th.machine.c_mem, mp.c_mem);
            EXPECT_EQ(th.power.p_d, pw.p_d);
            EXPECT_EQ(th.power.p_l, pw.p_l);
            EXPECT_EQ(th.power.n_l, pw.n_l);
            EXPECT_EQ(th.power.beta, pw.beta);
            EXPECT_EQ(th.power.gating, pw.gating);
            EXPECT_EQ(th.power.f_cg, pw.f_cg);

            const PowerPerformanceMetric theory(mp, pw, 3.0);
            std::vector<double> expected;
            for (double d : sim_depths)
                expected.push_back(theory(d));
            const std::vector<double> sim = s.metric(3.0, gated);
            const double scale = fitScaleFactor(sim, expected);
            for (double &v : expected)
                v *= scale;

            double r2 = 0.0;
            const auto curve = s.theoryCurve(3.0, gated, &r2, extended);
            ASSERT_EQ(curve.size(), expected.size());
            for (std::size_t i = 0; i < curve.size(); ++i)
                EXPECT_EQ(curve[i], expected[i]) << sim_depths[i];
            EXPECT_EQ(r2, rSquared(sim, expected));
        }
    }
}

TEST(DepthSweep, LatchExponentNearPaperValue)
{
    // Fig. 3: unit exponent 1.3 -> overall ~ 1.1.
    const double k = measuredLatchExponent(gccSweep());
    EXPECT_GT(k, 0.95);
    EXPECT_LT(k, 1.3);
}

TEST(DepthSweepDeathTest, AssemblyRefusesAHole)
{
    // A report prints nothing around a hole, so no SweepResult holds
    // one: assembling a grid with a 0-cycle run at a non-reference
    // depth is a bug, not a sweep with one fewer point.
    const SweepResult &full = gccSweep();
    std::vector<SimResult> runs = full.runs;
    SimResult hole;
    hole.workload = runs[3].workload;
    hole.depth = runs[3].depth;
    ASSERT_NE(hole.depth, full.options.reference_depth);
    runs[3] = hole;
    EXPECT_DEATH(assembleSweep(full.spec, full.options, runs),
                 "has a hole at depth 5");
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
