/**
 * @file
 * Differential oracle for the timing walk.
 *
 * src/uarch has one timing walk, templated on its lane count and its
 * lane-group width: simulateMultiDepth() walks one lane per
 * configuration (splitting counts it has no kernel for) at the
 * widest width the CPU runs, and simulate() is its 1-lane case.
 * Their contract is byte-identity with the scalar reference walk the
 * template replaced, kept in tests/uarch/reference_walk.cc. This
 * suite drives them over seeded randomized machine shapes — width,
 * issue discipline, predictor, cache geometry, memory-dependence
 * modeling, warmup, audited and unaudited lanes side by side, and
 * lane counts covering every compiled kernel plus one that splits —
 * over a catalog workload at the grid's 24 depths, and over
 * adversarial hand-built traces (one instruction, all branches,
 * store-forwarding chains), then asserts that every SimResult
 * serializes to the same bytes and that every ledger conserves
 * cycles at every depth. The WalkAtWidth suite runs the same inputs
 * through walk::timingWalk at each lane-group width (1, 4 and 8), so
 * the width-1 kernel at 4, 8 and 24 lanes, which a CPU without AVX2
 * runs, is checked on every host; a width the CPU lacks is skipped,
 * naming the instruction set it needs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <vector>

#include "reference_walk.hh"
#include "support/cpu_features.hh"
#include "sweep/depth_sweep.hh"
#include "sweep/result_cache.hh"
#include "trace/generator.hh"
#include "trace/replay_buffer.hh"
#include "uarch/multi_depth_walk.hh"
#include "uarch/simulator.hh"
#include "uarch/walk_state.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

/**
 * Assert field-level equality first (so a regression names the field
 * that diverged, not just "bytes differ"), then the full serialized
 * image, which covers every counter, every ledger bucket and the
 * per-unit stats in one comparison.
 */
void
expectIdentical(const SimResult &ref, const SimResult &fused)
{
    SCOPED_TRACE("workload=" + ref.workload + " depth=" +
                 std::to_string(ref.depth));
    EXPECT_EQ(ref.cycles, fused.cycles);
    EXPECT_EQ(ref.instructions, fused.instructions);
    EXPECT_EQ(ref.branches, fused.branches);
    EXPECT_EQ(ref.mispredicts, fused.mispredicts);
    EXPECT_EQ(ref.icache_misses, fused.icache_misses);
    EXPECT_EQ(ref.dcache_misses, fused.dcache_misses);
    EXPECT_EQ(ref.l2_accesses, fused.l2_accesses);
    EXPECT_EQ(ref.l2_misses, fused.l2_misses);
    for (std::size_t b = 0;
         b < static_cast<std::size_t>(StallBucket::NumBuckets); ++b) {
        const auto bucket = static_cast<StallBucket>(b);
        EXPECT_EQ(ref.ledgerCycles(bucket), fused.ledgerCycles(bucket))
            << "ledger bucket " << b << " diverged";
    }
    EXPECT_EQ(ref.load_interlock_events, fused.load_interlock_events);
    EXPECT_EQ(ref.fp_interlock_events, fused.fp_interlock_events);
    EXPECT_EQ(ref.int_interlock_events, fused.int_interlock_events);
    EXPECT_EQ(ref.ledger_residual, fused.ledger_residual);
    for (std::size_t u = 0; u < kNumUnits; ++u) {
        EXPECT_EQ(ref.units[u].active_cycles, fused.units[u].active_cycles)
            << "unit " << u << " active cycles diverged";
        EXPECT_EQ(ref.units[u].occupancy, fused.units[u].occupancy);
        EXPECT_EQ(ref.units[u].ops, fused.units[u].ops);
    }
    EXPECT_EQ(serializeSimResult(ref), serializeSimResult(fused))
        << "serialized results differ";
}

/** Cycle conservation: the ledger decomposition must be exact. */
void
expectConserving(const SimResult &res)
{
    SCOPED_TRACE("workload=" + res.workload + " depth=" +
                 std::to_string(res.depth));
    EXPECT_EQ(res.ledger_residual, 0);
    EXPECT_EQ(res.ledgerTotal(), res.cycles);
}

/**
 * Run @p trace through the reference walk and the timing walk, with
 * one shared annotation set, and compare. At @p lane_width 0 the
 * timing walk is the production route: simulate() once per config
 * and simulateMultiDepth() once over every config. Otherwise it is
 * walk::timingWalk at that lane-group width.
 */
void
runDifferential(const Trace &trace,
                const std::vector<PipelineConfig> &configs,
                std::size_t lane_width)
{
    SCOPED_TRACE("lanes=" + std::to_string(configs.size()) +
                 " lane_width=" + std::to_string(lane_width));
    ASSERT_TRUE(canFuseConfigs(configs));
    const ReplayBuffer replay = prepareReplay(trace);
    const ReplayAnnotations ann = annotateReplay(replay, configs.front());

    std::vector<SimResult> walked(configs.size());
    if (lane_width == 0)
        walked = simulateMultiDepth(replay, ann, configs);
    else
        walk::timingWalk(replay, ann, configs, walked, lane_width);
    ASSERT_EQ(walked.size(), configs.size());

    for (std::size_t k = 0; k < configs.size(); ++k) {
        const SimResult ref = referenceSimulate(replay, ann, configs[k]);
        expectIdentical(ref, walked[k]);
        if (lane_width == 0)
            expectIdentical(ref, simulate(replay, ann, configs[k]));
        expectConserving(walked[k]);
    }
}

/**
 * A fused config set: one machine shape at several depths. Two lanes
 * in three audit their ledger, so audited and unaudited lanes share a
 * walk and, at widths above 1, a lane group.
 */
std::vector<PipelineConfig>
configsAtDepths(const std::vector<int> &depths, bool in_order,
                const std::function<void(PipelineConfig &)> &customize)
{
    std::vector<PipelineConfig> configs;
    for (int p : depths) {
        PipelineConfig c = PipelineConfig::forDepth(p, in_order);
        c.audit_ledger = configs.size() % 3 != 2;
        customize(c);
        c.validate();
        configs.push_back(c);
    }
    return configs;
}

/**
 * Seeded: the same machine shapes and traces on every run. Each
 * iteration draws a new shape; parity of the iteration index forces
 * both issue disciplines and both memory-dependence modes to appear
 * regardless of the draws. The first ten iterations draw 4-6 lanes
 * at random depths; the rest walk each compiled lane count and one
 * count that splits (29 = 24 + 4 + 1: depths 2..30 in order), at
 * consecutive depths from the lowest, in order and out of order.
 */
void
randomizedShapes(std::size_t lane_width)
{
    const int forced_lanes[] = {1, 2, 4, 8, 24, 29};
    std::mt19937_64 rng(0xC0FFEE5EEDull);
    for (int iter = 0; iter < 22; ++iter) {
        SCOPED_TRACE("iteration " + std::to_string(iter));
        const bool in_order = (iter % 2) == 0;
        const bool memdep = (iter % 3) != 0;

        const int widths[] = {2, 4, 6};
        const int width = widths[rng() % 3];
        const int agen_width = 1 + static_cast<int>(rng() % 2);
        const auto predictor = static_cast<PredictorKind>(rng() % 3);
        const std::size_t warmup = (rng() % 2) ? 500 : 0;
        // Small, sometimes direct-mapped caches: high miss rates
        // exercise the penalty paths far harder than the defaults.
        const CacheConfig icache{(rng() % 2) ? 4096u : 8192u, 64, 1};
        const CacheConfig dcache{(rng() % 2) ? 8192u : 16384u, 64,
                                 (rng() % 2) ? 1u : 2u};
        const CacheConfig l2cache{65536, 256, 4};

        // Out-of-order configurations require depth >= 3.
        const int min_depth = in_order ? 2 : 3;
        const int drawn_lanes = 4 + static_cast<int>(rng() % 3);
        std::vector<int> depths;
        if (iter < 10) {
            for (int n = drawn_lanes; n > 0; --n)
                depths.push_back(min_depth +
                                 static_cast<int>(rng() % (31 - min_depth)));
        } else {
            for (int k = 0; k < forced_lanes[(iter - 10) / 2]; ++k)
                depths.push_back(min_depth + k % (31 - min_depth));
        }

        TraceGenParams params;
        params.seed = rng();
        params.length = 3000 + rng() % 3000;
        params.frac_fp = (iter % 2) ? 0.15 : 0.0;
        params.frac_div = 0.01;
        params.data_working_set = 1ull << 16;
        const Trace trace =
            generateTrace(params, "rand" + std::to_string(iter));

        runDifferential(
            trace,
            configsAtDepths(depths, in_order,
                            [&](PipelineConfig &c) {
                                c.width = width;
                                c.agen_width = agen_width;
                                c.predictor = predictor;
                                c.warmup_instructions = warmup;
                                c.model_memory_dependences = memdep;
                                c.icache = icache;
                                c.dcache = dcache;
                                c.l2cache = l2cache;
                            }),
            lane_width);
    }

    // The catalog grid's shape: one catalog workload on the sweep's
    // default machine at depths 2..25, one 24-lane walk (out of
    // order from depth 3, which it requires).
    SweepOptions opt;
    opt.trace_length = 20000;
    opt.warmup_instructions = 5000;
    const Trace catalog = findWorkload("gcc95").makeTrace(opt.trace_length);
    for (bool in_order : {true, false}) {
        opt.in_order = in_order;
        std::vector<PipelineConfig> configs;
        for (int p = in_order ? 2 : 3; p <= (in_order ? 25 : 26); ++p)
            configs.push_back(opt.configAtDepth(p));
        runDifferential(catalog, configs, lane_width);
    }
}

void
oneInstructionTrace(std::size_t lane_width)
{
    Trace t;
    t.name = "one-op";
    TraceRecord r;
    r.op = OpClass::IntAlu;
    r.pc = 0x400000;
    r.dst = 1;
    t.records.push_back(r);

    for (bool in_order : {true, false}) {
        runDifferential(t,
                        configsAtDepths({in_order ? 2 : 3, 9, 17, 25, 30},
                                        in_order, [](PipelineConfig &) {}),
                        lane_width);
    }
}

void
allBranchTrace(std::size_t lane_width)
{
    // Eight static conditional branches, each with its own dynamic
    // behaviour (always taken, never taken, alternating, ...): a
    // trace that is nothing but redirects and mispredicts.
    Trace t;
    t.name = "all-branch";
    for (int i = 0; i < 400; ++i) {
        TraceRecord r;
        r.op = OpClass::BranchCond;
        r.pc = 0x500000 + 8 * (i % 8);
        r.target = 0x500100;
        switch (i % 8) {
          case 0: r.taken = true; break;
          case 1: r.taken = false; break;
          case 2: r.taken = (i % 2) == 0; break;
          default: r.taken = (i % 3) == 0; break;
        }
        t.records.push_back(r);
    }

    for (bool in_order : {true, false}) {
        runDifferential(t,
                        configsAtDepths({in_order ? 2 : 3, 6, 13, 21, 30},
                                        in_order, [](PipelineConfig &) {}),
                        lane_width);
    }
}

void
storeForwardingChain(std::size_t lane_width)
{
    // Store/load pairs to the same dword with the store's data late
    // (produced by a divide): forwarded loads must take the
    // store-forwarding path identically in every walk, including
    // the binding-wait attribution.
    Trace t;
    t.name = "fwd-chain";
    for (int i = 0; i < 200; ++i) {
        TraceRecord div;
        div.op = OpClass::IntDiv;
        div.pc = 0x600000;
        div.dst = 3;
        t.records.push_back(div);

        TraceRecord st;
        st.op = OpClass::Store;
        st.pc = 0x600008;
        st.mem_addr = 0x1000 + 64 * (i % 4);
        st.src1 = 3;
        st.src3 = 5;
        t.records.push_back(st);

        TraceRecord ld;
        ld.op = OpClass::Load;
        ld.pc = 0x600010;
        ld.mem_addr = 0x1000 + 64 * (i % 4);
        ld.dst = 4;
        ld.src3 = 5;
        t.records.push_back(ld);

        TraceRecord use;
        use.op = OpClass::IntAlu;
        use.pc = 0x600018;
        use.dst = 6;
        use.src1 = 4;
        t.records.push_back(use);
    }

    for (bool in_order : {true, false}) {
        runDifferential(t,
                        configsAtDepths({in_order ? 2 : 3, 7, 14, 25},
                                        in_order,
                                        [](PipelineConfig &c) {
                                            c.model_memory_dependences =
                                                true;
                                        }),
                        lane_width);
    }
}

TEST(MultiDepthWalk, RandomizedConfigsMatchReferenceExactly)
{
    randomizedShapes(0);
}

TEST(MultiDepthWalk, OneInstructionTrace)
{
    oneInstructionTrace(0);
}

TEST(MultiDepthWalk, AllBranchTrace)
{
    allBranchTrace(0);
}

TEST(MultiDepthWalk, StoreForwardingChain)
{
    storeForwardingChain(0);
}

/**
 * The same inputs at one lane-group width: 1, which runs every lane
 * count on every CPU; 4, which runs 4, 8 and 24 lanes where the CPU
 * has AVX2; and 8, which runs 8 and 24 lanes (and 4 at width 4) where
 * it has AVX-512F.
 */
class WalkAtWidth : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void
    SetUp() override
    {
        if (!cpuRunsLaneWidth(GetParam()))
            GTEST_SKIP() << "lane width " << GetParam() << " needs "
                         << laneWidthIsa(GetParam())
                         << ", which this CPU lacks";
    }
};

TEST_P(WalkAtWidth, RandomizedConfigsMatchReferenceExactly)
{
    randomizedShapes(GetParam());
}

TEST_P(WalkAtWidth, AdversarialTracesMatchReferenceExactly)
{
    oneInstructionTrace(GetParam());
    allBranchTrace(GetParam());
    storeForwardingChain(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    LaneWidths, WalkAtWidth,
    ::testing::Values(std::size_t{1}, std::size_t{4}, std::size_t{8}),
    [](const ::testing::TestParamInfo<std::size_t> &p) {
        return "W" + std::to_string(p.param);
    });

TEST(MultiDepthWalk, EmptyConfigListReturnsNothing)
{
    Trace t;
    t.name = "one-op";
    t.records.push_back(TraceRecord{});
    const ReplayBuffer replay = prepareReplay(t);
    const ReplayAnnotations ann =
        annotateReplay(replay, PipelineConfig::forDepth(6));
    EXPECT_TRUE(simulateMultiDepth(replay, ann, {}).empty());
}

TEST(MultiDepthWalkDeath, EmptyTraceIsFatal)
{
    const ReplayBuffer empty;
    const ReplayAnnotations ann;
    const std::vector<PipelineConfig> configs{PipelineConfig::forDepth(6)};
    EXPECT_EXIT(simulateMultiDepth(empty, ann, configs),
                ::testing::ExitedWithCode(1), "empty trace");
}

TEST(MultiDepthWalk, CanFuseUniformShapes)
{
    std::vector<PipelineConfig> configs;
    for (int p : {2, 10, 20, 30})
        configs.push_back(PipelineConfig::forDepth(p));
    EXPECT_TRUE(canFuseConfigs(configs));
    EXPECT_TRUE(canFuseConfigs({}));
    EXPECT_TRUE(canFuseConfigs({configs.front()}));
}

TEST(MultiDepthWalk, CannotFuseMismatchedShapes)
{
    const PipelineConfig base = PipelineConfig::forDepth(6);
    auto mismatch = [&](auto &&mutate) {
        PipelineConfig other = PipelineConfig::forDepth(12);
        mutate(other);
        return canFuseConfigs({base, other});
    };
    EXPECT_FALSE(mismatch([](PipelineConfig &c) { c.width = 2; }));
    EXPECT_FALSE(mismatch([](PipelineConfig &c) { c.agen_width = 1; }));
    EXPECT_FALSE(mismatch([](PipelineConfig &c) { c.in_order = false; }));
    EXPECT_FALSE(mismatch([](PipelineConfig &c) { c.fetch_buffer = 4; }));
    EXPECT_FALSE(mismatch([](PipelineConfig &c) { c.exec_queue = 6; }));
    EXPECT_FALSE(mismatch([](PipelineConfig &c) { c.max_inflight = 32; }));
    EXPECT_FALSE(mismatch(
        [](PipelineConfig &c) { c.model_memory_dependences = true; }));
}

} // namespace
} // namespace pipedepth
