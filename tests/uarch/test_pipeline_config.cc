/**
 * @file
 * Tests for pipeline configuration and depth scaling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "uarch/pipeline_config.hh"

namespace pipedepth
{
namespace
{

int
unitDepth(const PipelineConfig &cfg, Unit u)
{
    return cfg.unit_depth[static_cast<std::size_t>(u)];
}

TEST(PipelineConfig, EveryDepthSumsAlongRxPath)
{
    for (int p = 2; p <= 30; ++p) {
        const PipelineConfig cfg = PipelineConfig::forDepth(p);
        EXPECT_EQ(cfg.rxPathDepth(), p) << "p=" << p;
        EXPECT_EQ(cfg.depth, p);
    }
}

TEST(PipelineConfig, ExpansionGrowsDecodeCacheExecTogether)
{
    // "We insert extra stages in Decode, Cache Access and E-Unit
    // Pipe, simultaneously" — they stay within one stage of each
    // other at every depth.
    for (int p = 6; p <= 30; ++p) {
        const PipelineConfig cfg = PipelineConfig::forDepth(p);
        const int d = unitDepth(cfg, Unit::Decode);
        const int c = unitDepth(cfg, Unit::DCache);
        const int e = unitDepth(cfg, Unit::Fxu);
        EXPECT_LE(std::abs(d - c), 1) << "p=" << p;
        EXPECT_LE(std::abs(d - e), 1) << "p=" << p;
        EXPECT_LE(std::abs(c - e), 1) << "p=" << p;
        // Queues stay single-stage during expansion.
        EXPECT_EQ(unitDepth(cfg, Unit::AgenQ), 1);
        EXPECT_EQ(unitDepth(cfg, Unit::ExecQ), 1);
    }
}

TEST(PipelineConfig, ExpansionIsMonotone)
{
    for (Unit u : {Unit::Decode, Unit::DCache, Unit::Fxu}) {
        int prev = 0;
        for (int p = 6; p <= 30; ++p) {
            const int d =
                unitDepth(PipelineConfig::forDepth(p), u);
            EXPECT_GE(d, prev) << unitName(u) << " p=" << p;
            prev = d;
        }
    }
}

TEST(PipelineConfig, ContractionMergesUnits)
{
    // Fewer than 6 allocated stages share cycles; 6 or more do not.
    // Out of order, rename takes one of the p stages.
    using Groups = std::vector<std::vector<Unit>>;
    const Groups by_alloc[] = {
        {{Unit::Decode, Unit::AgenQ, Unit::Agen},
         {Unit::Fxu, Unit::DCache, Unit::ExecQ}},
        {{Unit::Decode, Unit::AgenQ, Unit::Agen},
         {Unit::DCache, Unit::ExecQ}},
        {{Unit::Decode, Unit::AgenQ}, {Unit::DCache, Unit::ExecQ}},
        {{Unit::DCache, Unit::ExecQ}},
    };
    for (int alloc = 2; alloc <= 10; ++alloc) {
        const Groups want = alloc < 6 ? by_alloc[alloc - 2] : Groups{};
        EXPECT_EQ(PipelineConfig::forDepth(alloc).mergeGroups(), want)
            << "alloc=" << alloc;
        EXPECT_EQ(PipelineConfig::forDepth(alloc + 1, false).mergeGroups(),
                  want)
            << "alloc=" << alloc;
    }
}

TEST(PipelineConfig, MergedUnitsHaveZeroDepth)
{
    // Only the host, listed first, keeps a cycle of its own.
    for (int p = 2; p <= 5; ++p) {
        const PipelineConfig cfg = PipelineConfig::forDepth(p);
        for (const auto &group : cfg.mergeGroups()) {
            EXPECT_GT(unitDepth(cfg, group.front()), 0) << "p=" << p;
            for (std::size_t i = 1; i < group.size(); ++i)
                EXPECT_EQ(unitDepth(cfg, group[i]), 0) << "p=" << p;
        }
    }
}

TEST(PipelineConfig, HeavyPoliciesGrowOneUnit)
{
    const struct
    {
        ExpansionPolicy policy;
        Unit grows;
        const char *name;
    } cases[] = {
        {ExpansionPolicy::DecodeHeavy, Unit::Decode, "decode-heavy"},
        {ExpansionPolicy::CacheHeavy, Unit::DCache, "cache-heavy"},
        {ExpansionPolicy::ExecHeavy, Unit::Fxu, "exec-heavy"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(toString(c.policy), c.name);
        for (bool in_order : {true, false}) {
            const PipelineConfig cfg =
                PipelineConfig::forDepth(20, in_order, c.policy);
            for (Unit u : {Unit::Decode, Unit::DCache, Unit::Fxu}) {
                EXPECT_EQ(unitDepth(cfg, u),
                          u == c.grows ? (in_order ? 15 : 14) : 1)
                    << c.name << " " << unitName(u);
            }
        }
    }
    EXPECT_EQ(toString(ExpansionPolicy::Uniform), "uniform");
}

TEST(PipelineConfig, InOrderSkipsRename)
{
    EXPECT_EQ(unitDepth(PipelineConfig::forDepth(8, true), Unit::Rename),
              0);
    EXPECT_EQ(unitDepth(PipelineConfig::forDepth(8, false), Unit::Rename),
              1);
}

TEST(PipelineConfig, CycleTimeMatchesFormula)
{
    const PipelineConfig cfg = PipelineConfig::forDepth(7);
    EXPECT_NEAR(cfg.cycleTime(), 2.5 + 140.0 / 7.0, 1e-12);
}

TEST(PipelineConfig, MissPenaltiesGrowWithDepth)
{
    // Constant-time latencies cost more cycles at faster clocks.
    const PipelineConfig shallow = PipelineConfig::forDepth(4);
    const PipelineConfig deep = PipelineConfig::forDepth(24);
    EXPECT_GT(deep.missPenaltyCycles(), shallow.missPenaltyCycles());
    EXPECT_GT(deep.l2PenaltyCycles(), shallow.l2PenaltyCycles());
    EXPECT_GE(shallow.missPenaltyCycles(), 1);
}

TEST(PipelineConfig, ForwardLatencyScalesSubLinearly)
{
    const PipelineConfig cfg = PipelineConfig::forDepth(8);
    EXPECT_EQ(cfg.forwardLatency(1), 1);
    EXPECT_LE(cfg.forwardLatency(8), 8);
    EXPECT_GT(cfg.forwardLatency(10), cfg.forwardLatency(2));
}

TEST(PipelineConfigDeath, RejectsOutOfRangeDepths)
{
    EXPECT_EXIT(PipelineConfig::forDepth(1), ::testing::ExitedWithCode(1),
                "depths");
    EXPECT_EXIT(PipelineConfig::forDepth(31),
                ::testing::ExitedWithCode(1), "depths");
}

TEST(PipelineConfigDeath, ValidateCatchesInconsistency)
{
    PipelineConfig cfg = PipelineConfig::forDepth(8);
    cfg.depth = 9; // no longer matches unit depths
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "sum");
}

TEST(PipelineConfig, UnitNamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t u = 0; u < kNumUnits; ++u)
        names.insert(unitName(static_cast<Unit>(u)));
    EXPECT_EQ(names.size(), kNumUnits);
}

} // namespace
} // namespace pipedepth
