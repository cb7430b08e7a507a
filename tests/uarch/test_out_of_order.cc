/**
 * @file
 * Tests for the out-of-order execution mode.
 *
 * The paper's simulator "can handle ... either in-order or
 * out-of-order execution processing"; the study uses in-order, but
 * Hartstein & Puzak (ISCA 2002) found "only minor differences in the
 * pipeline depth optimization" between the two. These tests cover the
 * OoO mode's correctness and that finding.
 */

#include <gtest/gtest.h>

#include "sweep/depth_sweep.hh"
#include "trace/generator.hh"
#include "uarch/simulator.hh"

namespace pipedepth
{
namespace
{

Trace
genTrace(std::uint64_t seed = 5, std::size_t n = 30000)
{
    TraceGenParams p;
    p.seed = seed;
    p.length = n;
    return generateTrace(p, "ooo-test");
}

TraceRecord
alu(std::uint8_t dst, std::uint8_t src1 = kNoReg)
{
    TraceRecord r;
    r.op = OpClass::IntAlu;
    r.pc = 0x400000;
    r.dst = dst;
    r.src1 = src1;
    return r;
}

TEST(OutOfOrder, RetiresEverythingDeterministically)
{
    const Trace t = genTrace();
    for (int p : {3, 8, 17, 25}) {
        const SimResult a = simulateAtDepth(t, p, false);
        const SimResult b = simulateAtDepth(t, p, false);
        EXPECT_EQ(a.instructions, t.size()) << "p=" << p;
        EXPECT_EQ(a.cycles, b.cycles) << "p=" << p;
    }
}

TEST(OutOfOrder, HasRenameStage)
{
    const SimResult r = simulateAtDepth(genTrace(), 8, false);
    const auto &rename =
        r.units[static_cast<std::size_t>(Unit::Rename)];
    EXPECT_EQ(rename.depth, 1);
    EXPECT_GT(rename.ops, 0u);
    const SimResult io = simulateAtDepth(genTrace(), 8, true);
    EXPECT_EQ(io.units[static_cast<std::size_t>(Unit::Rename)].depth, 0);
}

TEST(OutOfOrder, NeverSlowerThanInOrderOnMixedCode)
{
    // Out-of-order issue removes head-of-queue blocking; with the
    // extra rename stage it can pay a small latency cost but on
    // dependency-diverse code it should not lose by much, and on the
    // whole trace it should win.
    const Trace t = genTrace(7, 40000);
    for (int p : {8, 16, 24}) {
        const SimResult io = simulateAtDepth(t, p, true);
        const SimResult ooo = simulateAtDepth(t, p, false);
        EXPECT_LE(ooo.cycles,
                  io.cycles + io.cycles / 10) // within 10% at worst
            << "p=" << p;
    }
}

TEST(OutOfOrder, OverlapsIndependentWorkBehindAStall)
{
    // A serial multiply chain whose immediate consumer blocks the
    // in-order issue point while independent work waits behind it;
    // out-of-order executes the independents in the shadow.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 1200; ++i) {
        TraceRecord mul;
        mul.op = OpClass::IntMul;
        mul.pc = 0x400000;
        mul.dst = 1;
        mul.src1 = 1; // serial multiply chain
        recs.push_back(mul);
        recs.push_back(alu(15, 1)); // blocks in-order issue
        for (int j = 0; j < 4; ++j)
            recs.push_back(alu(static_cast<std::uint8_t>(2 + j)));
    }
    Trace t;
    t.name = "shadow";
    t.records = recs;

    const SimResult io = simulateAtDepth(t, 12, true);
    const SimResult ooo = simulateAtDepth(t, 12, false);
    EXPECT_LT(ooo.cycles, io.cycles);
}

TEST(OutOfOrder, StillObservesDependences)
{
    // A pure serial chain gains nothing from out-of-order issue.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 1500; ++i)
        recs.push_back(alu(1, 1));
    Trace t;
    t.name = "serial";
    t.records = recs;
    const SimResult io = simulateAtDepth(t, 12, true);
    const SimResult ooo = simulateAtDepth(t, 12, false);
    // Rename adds a stage but the chain dominates; within ~15%.
    EXPECT_NEAR(static_cast<double>(ooo.cycles),
                static_cast<double>(io.cycles),
                0.15 * static_cast<double>(io.cycles));
}

TEST(OutOfOrder, WidthStillBounded)
{
    const SimResult r = simulateAtDepth(genTrace(), 8, false);
    EXPECT_GE(r.cycles * static_cast<std::uint64_t>(r.config.width),
              r.instructions);
}

TEST(OutOfOrder, OptimumDepthSimilarToInOrder)
{
    // The ISCA'02 finding: in-order vs out-of-order changes the
    // optimum pipeline depth only modestly.
    SweepOptions opt;
    opt.trace_length = 60000;
    opt.warmup_instructions = 30000;
    SweepOptions ooo_opt = opt;
    ooo_opt.in_order = false;
    // Depth 3 minimum for out-of-order (rename takes a stage).
    ooo_opt.min_depth = 3;

    const WorkloadSpec &w = findWorkload("gcc95");
    const SweepResult io = runDepthSweep(w, opt).value();
    const SweepResult ooo = runDepthSweep(w, ooo_opt).value();

    bool i1 = false, i2 = false;
    const double p_io = io.cubicFitOptimum(3.0, true, &i1);
    const double p_ooo = ooo.cubicFitOptimum(3.0, true, &i2);
    ASSERT_TRUE(i1);
    ASSERT_TRUE(i2);
    EXPECT_NEAR(p_ooo, p_io, 0.45 * p_io);
}

} // namespace
} // namespace pipedepth
