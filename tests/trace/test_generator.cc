/**
 * @file
 * Tests for the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "sweep/cache_key.hh"
#include "trace/generator.hh"
#include "trace/replay_buffer.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

TraceGenParams
base()
{
    TraceGenParams p;
    p.seed = 42;
    p.length = 60000;
    return p;
}

TEST(Generator, Deterministic)
{
    const Trace a = generateTrace(base(), "x");
    const Trace b = generateTrace(base(), "x");
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc);
        ASSERT_EQ(a[i].op, b[i].op);
        ASSERT_EQ(a[i].mem_addr, b[i].mem_addr);
        ASSERT_EQ(a[i].taken, b[i].taken);
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    TraceGenParams p2 = base();
    p2.seed = 43;
    const Trace a = generateTrace(base(), "x");
    const Trace b = generateTrace(p2, "x");
    std::size_t same = 0;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        same += a[i].pc == b[i].pc;
    EXPECT_LT(same, n / 2);
}

TEST(Generator, ExactLength)
{
    const Trace t = generateTrace(base(), "x");
    EXPECT_EQ(t.size(), base().length);
    EXPECT_EQ(t.seed, base().seed);
    EXPECT_EQ(t.name, "x");
}

TEST(Generator, BranchFractionMatches)
{
    const Trace t = generateTrace(base(), "x");
    const TraceMix mix = computeMix(t);
    EXPECT_NEAR(mix.frac(mix.branches), base().branch_frac, 0.03);
}

TEST(Generator, InstructionMixMatches)
{
    // Mix accounting is over the dynamic walk, which weights hot
    // loops heavily; use a footprint large enough for the law of
    // large numbers to hold across hot blocks.
    TraceGenParams p = base();
    p.length = 200000;
    p.n_blocks = 4000;
    p.frac_load = 0.25;
    p.frac_store = 0.12;
    p.frac_fp = 0.2;
    const Trace t = generateTrace(p, "x");
    const TraceMix mix = computeMix(t);
    const double non_branch = 1.0 - mix.frac(mix.branches);
    EXPECT_NEAR(mix.frac(mix.loads), 0.25 * non_branch, 0.03);
    EXPECT_NEAR(mix.frac(mix.stores), 0.12 * non_branch, 0.02);
    EXPECT_NEAR(mix.frac(mix.fp_ops), 0.2 * non_branch, 0.03);
}

TEST(Generator, MemOpsHaveAddressesAndBase)
{
    const Trace t = generateTrace(base(), "x");
    for (const auto &r : t.records) {
        if (opTraits(r.op).is_mem) {
            EXPECT_NE(r.mem_addr, 0u);
            EXPECT_LT(r.src3, kNumGprs);
        }
    }
}

TEST(Generator, BranchesHaveTargets)
{
    const Trace t = generateTrace(base(), "x");
    std::uint64_t checked = 0;
    for (const auto &r : t.records) {
        if (opTraits(r.op).is_branch) {
            EXPECT_NE(r.target, 0u);
            if (r.op == OpClass::BranchUncond) {
                EXPECT_TRUE(r.taken);
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(Generator, TakenBranchesGoToTargets)
{
    const Trace t = generateTrace(base(), "x");
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        const TraceRecord &r = t[i];
        if (opTraits(r.op).is_branch && r.taken) {
            EXPECT_EQ(t[i + 1].pc, r.target) << i;
        }
    }
}

TEST(Generator, SequentialPcWithinBlocks)
{
    const Trace t = generateTrace(base(), "x");
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        const TraceRecord &r = t[i];
        if (!opTraits(r.op).is_branch || !r.taken) {
            // Fall-through: the next pc is r.pc + 4 unless a block
            // boundary (non-branch blocks don't exist; body instrs
            // are sequential).
            if (!opTraits(r.op).is_branch) {
                EXPECT_EQ(t[i + 1].pc, r.pc + 4) << i;
            }
        }
    }
}

TEST(Generator, VisitsManyBlocks)
{
    // Regression: unconditional-branch cycles used to trap the walk
    // in a handful of blocks.
    TraceGenParams p = base();
    p.cond_branch_share = 0.3; // many unconditional branches
    const Trace t = generateTrace(p, "x");
    std::set<std::uint64_t> pcs;
    for (const auto &r : t.records)
        pcs.insert(r.pc);
    EXPECT_GT(pcs.size(), 500u);
}

TEST(Generator, WorkingSetBoundsAddresses)
{
    TraceGenParams p = base();
    p.data_working_set = 64 * 1024;
    const Trace t = generateTrace(p, "x");
    for (const auto &r : t.records) {
        if (opTraits(r.op).is_mem) {
            EXPECT_GE(r.mem_addr, 0x10000000u);
            EXPECT_LT(r.mem_addr, 0x10000000u + 4096 + 64 * 1024 + 64);
        }
    }
}

TEST(Generator, FpRegistersForFpOps)
{
    TraceGenParams p = base();
    p.frac_fp = 0.5;
    const Trace t = generateTrace(p, "x");
    for (const auto &r : t.records) {
        if (isFp(r.op)) {
            EXPECT_GE(r.dst, kFprBase);
            EXPECT_LT(r.dst, kNumRegs);
        }
    }
}

TEST(Generator, DependenceKnobShortensDistances)
{
    auto mean_dist = [](const Trace &t) {
        // Average distance from each instr to the most recent writer
        // of src1.
        std::vector<long> last(kNumRegs, -1);
        double sum = 0.0;
        long n = 0;
        for (long i = 0; i < static_cast<long>(t.size()); ++i) {
            const TraceRecord &r = t[static_cast<std::size_t>(i)];
            if (r.src1 != kNoReg && last[r.src1] >= 0) {
                sum += static_cast<double>(i - last[r.src1]);
                ++n;
            }
            if (r.dst != kNoReg)
                last[r.dst] = i;
        }
        return n ? sum / n : 1e9;
    };

    TraceGenParams tight = base();
    tight.dep_near = 0.9;
    tight.mean_dep_dist = 1.5;
    TraceGenParams loose = base();
    loose.dep_near = 0.2;
    loose.mean_dep_dist = 8.0;
    EXPECT_LT(mean_dist(generateTrace(tight, "t")),
              mean_dist(generateTrace(loose, "l")));
}

/**
 * Every field of every record, folded one by one into a StableHasher.
 * A tape carries every bit of a record, including fields the timing
 * model never reads, so the golden SimResult hashes cannot stand in
 * for this.
 */
std::string
recordDigest(const Trace &t)
{
    StableHasher h;
    for (const auto &r : t.records) {
        h.u64(r.pc);
        h.u64(r.mem_addr);
        h.i64(static_cast<std::int64_t>(r.op));
        h.i64(r.dst);
        h.i64(r.src1);
        h.i64(r.src2);
        h.i64(r.src3);
        h.u64(r.taken ? 1 : 0);
        h.u64(r.target);
    }
    return h.key().hex();
}

TEST(Generator, RecordsPinnedBitForBit)
{
    // The first catalog workload of each class, plus the default
    // parameters, at three lengths.
    const struct
    {
        const char *workload; //!< catalog name, or "default"
        std::size_t length;
        const char *digest;
    } pinned[] = {
        {"db1", 1, "4cb989d09735aafee6549a7b81b6be0e"},
        {"db1", 30000, "88d0b6f2542b04b3747dc50fa2651883"},
        {"db1", 150000, "92e31c8e162ce02117aab6e31cbff071"},
        {"websrv", 1, "f50d26bf317a98348ea8376a1bfbab44"},
        {"websrv", 30000, "69a7f7c3772a005ee7c26720e2ca67ae"},
        {"websrv", 150000, "39f51e82fa4bd4ccf19d7974bd56337c"},
        {"go95", 1, "725cbdeb30b095d90bf7ce961b31a8e9"},
        {"go95", 30000, "a2362d642f00d5784bdb64f925f7d128"},
        {"go95", 150000, "5fe05a22a3df91669afb4e6073106496"},
        {"gzip00", 1, "4249b6bbafa06f17bddf41bee2f6c707"},
        {"gzip00", 30000, "9986f3b9e96eaf6fd430ab27d5797c9f"},
        {"gzip00", 150000, "750e44d1c546c24d30210f25d84361bd"},
        {"tomcatv", 1, "f881814544acb03f921c91f02f2dc34f"},
        {"tomcatv", 30000, "73e81eef6b5b0acfdbc46500da0c3c9f"},
        {"tomcatv", 150000, "ea9063ea2354fb00a8eb80a84c63f030"},
        {"default", 1, "1d3e0f9cd0730f5ab6d92047baf4226a"},
        {"default", 30000, "7be3a06f5aed4f744fc1283455b62e44"},
        {"default", 150000, "4a01286b5e003e7aa2555e4e720fadca"},
    };
    for (const auto &pin : pinned) {
        const std::string name = pin.workload;
        TraceGenParams params =
            name == "default" ? TraceGenParams{} : findWorkload(name).gen;
        params.length = pin.length;
        const Trace t = generateTrace(params, name);
        ASSERT_EQ(t.size(), pin.length) << name;
        EXPECT_EQ(recordDigest(t), pin.digest)
            << name << " at length " << pin.length;
    }
}

TEST(Generator, ReplaySinkMatchesPreparedTrace)
{
    // The replay sink must flatten exactly the records the trace sink
    // keeps: every catalog spec, every ReplayOp field.
    const std::size_t lengths[] = {1, 2, 1000, 30000};
    for (const WorkloadSpec &spec : workloadCatalog()) {
        for (const std::size_t length : lengths) {
            const ReplayBuffer direct = spec.makeReplay(length);
            const ReplayBuffer prepared =
                prepareReplay(spec.makeTrace(length));
            ASSERT_EQ(direct.name, prepared.name);
            ASSERT_EQ(direct.size(), length) << spec.name;
            ASSERT_EQ(prepared.size(), length) << spec.name;
            for (std::size_t i = 0; i < length; ++i) {
                const ReplayOp &a = direct.ops[i];
                const ReplayOp &b = prepared.ops[i];
                ASSERT_TRUE(a.pc == b.pc && a.mem_addr == b.mem_addr &&
                            a.dst == b.dst && a.src1 == b.src1 &&
                            a.src2 == b.src2 && a.src3 == b.src3 &&
                            a.op == b.op && a.flags == b.flags &&
                            a.exec_latency == b.exec_latency &&
                            a.pad_ == b.pad_)
                    << spec.name << " at length " << length << ", op "
                    << i;
            }
        }
    }
}

TEST(GeneratorDeath, RejectsBadParameters)
{
    TraceGenParams p = base();
    p.frac_load = 0.9;
    p.frac_fp = 0.5;
    EXPECT_EXIT(generateTrace(p, "x"), ::testing::ExitedWithCode(1),
                "exceed");

    p = base();
    p.length = 0;
    EXPECT_EXIT(generateTrace(p, "x"), ::testing::ExitedWithCode(1),
                "length");

    p = base();
    p.n_blocks = 1;
    EXPECT_EXIT(generateTrace(p, "x"), ::testing::ExitedWithCode(1),
                "blocks");
}

/** Parameterized mix audit across very different profiles. */
class GeneratorMix
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{
};

TEST_P(GeneratorMix, FractionsTrack)
{
    const auto [branch, load, fp] = GetParam();
    TraceGenParams p = base();
    p.length = 200000;
    p.n_blocks = 4000;
    p.branch_frac = branch;
    p.frac_load = load;
    p.frac_fp = fp;
    const Trace t = generateTrace(p, "x");
    const TraceMix mix = computeMix(t);
    EXPECT_NEAR(mix.frac(mix.branches), branch, 0.04);
    const double nb = 1.0 - mix.frac(mix.branches);
    EXPECT_NEAR(mix.frac(mix.loads), load * nb, 0.04);
    EXPECT_NEAR(mix.frac(mix.fp_ops), fp * nb, 0.04);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, GeneratorMix,
    ::testing::Values(std::make_tuple(0.08, 0.2, 0.0),
                      std::make_tuple(0.15, 0.3, 0.1),
                      std::make_tuple(0.22, 0.15, 0.0),
                      std::make_tuple(0.10, 0.25, 0.4)));

} // namespace
} // namespace pipedepth
