/**
 * @file
 * Tests for the constant-absolute-time extension of Eq. 1 (the
 * MachineParams::c_mem term, not in the paper's model).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "core/optimum_solver.hh"
#include "core/power_model.hh"
#include "sweep/depth_sweep.hh"

namespace pipedepth
{
namespace
{

MachineParams
base(double c_mem)
{
    MachineParams mp;
    mp.alpha = 2.0;
    mp.gamma = 0.45;
    mp.hazard_ratio = 0.12;
    mp.c_mem = c_mem;
    return mp;
}

PowerParams
power(ClockGating gating)
{
    PowerParams pw;
    pw.gating = gating;
    pw.beta = 1.3;
    return PowerModel::calibrateLeakage(base(0.0), pw, 0.15, 8.0);
}

TEST(ExtendedModel, ZeroCmemIsThePaperModel)
{
    for (auto gating : {ClockGating::None, ClockGating::FineGrained}) {
        const OptimumSolver plain(base(0.0), power(gating));
        MachineParams mp = base(0.0);
        const OptimumSolver same(mp, power(gating));
        EXPECT_DOUBLE_EQ(plain.solveExact(3.0).p_opt,
                         same.solveExact(3.0).p_opt);
    }
}

TEST(ExtendedModel, CmemAddsConstantTime)
{
    const PerformanceModel with(base(10.0));
    const PerformanceModel without(base(0.0));
    for (double p : {2.0, 8.0, 20.0}) {
        EXPECT_NEAR(with.timePerInstruction(p),
                    without.timePerInstruction(p) + 10.0, 1e-12);
        // The derivative (and hence Eq. 2) is untouched.
        EXPECT_DOUBLE_EQ(with.timeDerivative(p),
                         without.timeDerivative(p));
    }
    EXPECT_DOUBLE_EQ(with.performanceOnlyOptimum(),
                     without.performanceOnlyOptimum());
}

TEST(ExtendedModel, ExactMatchesNumericWithCmem)
{
    // The generalized quartics must agree with direct maximization.
    Rng rng(2024);
    for (int trial = 0; trial < 30; ++trial) {
        MachineParams mp = base(rng.uniform(0.0, 30.0));
        mp.alpha = rng.uniform(1.0, 4.0);
        mp.hazard_ratio = rng.uniform(0.03, 0.25);
        PowerParams pw;
        pw.p_d = rng.uniform(0.3, 2.0);
        pw.p_l = rng.uniform(0.0, 0.05);
        pw.beta = rng.uniform(1.0, 1.8);
        pw.gating = rng.bernoulli(0.5) ? ClockGating::FineGrained
                                       : ClockGating::None;
        const double m = rng.uniform(2.0, 5.0);

        const OptimumSolver solver(mp, pw);
        const OptimumResult ex = solver.solveExact(m);
        const OptimumResult nu = solver.solveNumeric(m, 256.0);
        EXPECT_EQ(ex.interior, nu.interior)
            << "trial " << trial << " c_mem " << mp.c_mem;
        if (ex.interior) {
            EXPECT_NEAR(ex.p_opt, nu.p_opt, 5e-3 * ex.p_opt + 1e-2)
                << "trial " << trial;
        }
    }
}

TEST(ExtendedModel, ConstantTimeShallowsTheOptimum)
{
    // When a depth-independent time term dominates, pipelining buys
    // little performance while latch power still grows with depth,
    // so the optimum moves to shallower designs — the same direction
    // the simulator shows when memory latency is swept (see
    // bench_ablation_memory).
    for (auto gating : {ClockGating::FineGrained, ClockGating::None}) {
        const OptimumSolver lean(base(0.0), power(gating));
        const OptimumSolver memory_bound(base(25.0), power(gating));
        const double p0 = lean.solveExact(3.0).p_opt;
        const double p1 = memory_bound.solveExact(3.0).p_opt;
        EXPECT_LT(p1, p0) << toString(gating);
    }
}

TEST(ExtendedModel, ExtractionMeasuresCmem)
{
    SweepOptions opt;
    opt.trace_length = 60000;
    opt.warmup_instructions = 30000;
    const SweepResult db = runDepthSweep(findWorkload("db1"), opt).value();
    const SweepResult gcc =
        runDepthSweep(findWorkload("gcc95"), opt).value();
    EXPECT_GE(db.extracted.c_mem, 0.0);
    // The memory-hostile legacy workload carries more constant time.
    EXPECT_GT(db.extracted.c_mem, gcc.extracted.c_mem);
}

TEST(ExtendedModel, ExtendedOverlayFitsMemoryHeavyWorkloadsBetter)
{
    SweepOptions opt;
    opt.trace_length = 60000;
    opt.warmup_instructions = 30000;
    const SweepResult sweep =
        runDepthSweep(findWorkload("swim"), opt).value();
    double r2_paper = 0.0, r2_ext = 0.0;
    sweep.theoryCurve(3.0, true, &r2_paper, false);
    sweep.theoryCurve(3.0, true, &r2_ext, true);
    EXPECT_GT(r2_ext, r2_paper);
}

TEST(ExtendedModelDeath, RejectsNegativeCmem)
{
    MachineParams mp = base(-1.0);
    EXPECT_EXIT(mp.validate(), ::testing::ExitedWithCode(1), "c_mem");
}

} // namespace
} // namespace pipedepth
