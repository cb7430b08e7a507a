/**
 * @file
 * SweepEngine behaviour tests: counter accounting on cold and warm
 * runs, silent recomputation of corrupt cache entries, the --no-cache
 * escape hatch, explicit-trace (runConfigs) caching and its one
 * trace hash per call, the spec form of runConfigs (same bytes as the
 * trace form, runGrid's cache addresses), the shared SweepResult
 * assembly, and the summary table. Byte-level determinism lives in
 * test_engine_determinism.cc.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "calib/extract.hh"
#include "common/failpoint.hh"
#include "math/least_squares.hh"
#include "sweep/cache_key.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep_engine.hh"
#include "telemetry/telemetry.hh"

namespace pipedepth
{
namespace
{

SweepOptions
fastOptions()
{
    SweepOptions opt;
    opt.min_depth = 2;
    opt.max_depth = 6;
    opt.reference_depth = 4;
    opt.trace_length = 20000;
    opt.warmup_instructions = 5000;
    return opt;
}

/** Fresh private cache directory per test. */
class SweepEngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("pipedepth-engine-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    SweepEngine
    makeEngine(bool use_cache = true)
    {
        SweepEngineOptions opt;
        opt.use_cache = use_cache;
        opt.cache_dir = dir_.string();
        return SweepEngine(opt);
    }

    std::size_t
    entryFileCount() const
    {
        if (!std::filesystem::exists(dir_))
            return 0;
        std::size_t n = 0;
        for (const auto &e : std::filesystem::directory_iterator(dir_))
            n += e.path().extension() == ".simres" ? 1 : 0;
        return n;
    }

    std::filesystem::path dir_;
};

TEST_F(SweepEngineTest, ColdRunAccountsEveryCell)
{
    SweepEngine engine = makeEngine();
    ASSERT_TRUE(engine.cacheEnabled());
    EXPECT_EQ(engine.cacheDir(), dir_.string());

    const auto sweeps =
        engine.runGrid({findWorkload("gcc95")}, fastOptions());
    ASSERT_EQ(sweeps.size(), 1u);
    ASSERT_EQ(sweeps[0].runs.size(), 5u);

    const SweepCounters c = engine.counters();
    EXPECT_EQ(c.cells_total, 5u);
    EXPECT_EQ(c.cells_computed, 5u);
    EXPECT_EQ(c.cache_hits, 0u);
    EXPECT_EQ(c.cache_stores, 5u);
    EXPECT_EQ(c.cache_errors, 0u);
    EXPECT_EQ(c.traces_generated, 1u);
    EXPECT_GT(c.instructions_simulated, 0u);
    EXPECT_GT(c.wall_seconds, 0.0);
    EXPECT_GT(c.simMips(), 0.0);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.0);
    EXPECT_EQ(entryFileCount(), 5u);
}

TEST_F(SweepEngineTest, WarmRunServesEverythingFromCache)
{
    makeEngine().runGrid({findWorkload("gcc95")}, fastOptions());

    SweepEngine warm = makeEngine();
    const auto sweeps =
        warm.runGrid({findWorkload("gcc95")}, fastOptions());
    ASSERT_EQ(sweeps[0].runs.size(), 5u);
    // Hits carry the identity the caller asked for.
    for (const auto &r : sweeps[0].runs)
        EXPECT_EQ(r.workload, "gcc95");

    const SweepCounters c = warm.counters();
    EXPECT_EQ(c.cells_total, 5u);
    EXPECT_EQ(c.cells_computed, 0u);
    EXPECT_EQ(c.cache_hits, 5u);
    EXPECT_EQ(c.cache_stores, 0u);
    EXPECT_EQ(c.traces_generated, 0u);
    EXPECT_EQ(c.instructions_simulated, 0u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 1.0);
}

TEST_F(SweepEngineTest, DifferentOptionsMissTheCache)
{
    makeEngine().runGrid({findWorkload("gcc95")}, fastOptions());

    SweepOptions longer = fastOptions();
    longer.trace_length = 25000;
    SweepEngine engine = makeEngine();
    engine.runGrid({findWorkload("gcc95")}, longer);
    EXPECT_EQ(engine.counters().cache_hits, 0u);
    EXPECT_EQ(engine.counters().cells_computed, 5u);
}

TEST_F(SweepEngineTest, CorruptEntryIsRecomputedSilently)
{
    SweepEngine cold = makeEngine();
    const auto original =
        cold.runGrid({findWorkload("gcc95")}, fastOptions());

    // Flip one payload bit in one entry on disk.
    ASSERT_EQ(entryFileCount(), 5u);
    const auto victim =
        std::filesystem::directory_iterator(dir_)->path();
    {
        std::fstream f(victim,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(60);
        char byte = 0;
        f.read(&byte, 1);
        f.seekp(60);
        f.put(static_cast<char>(byte ^ 0x40));
    }

    SweepEngine repair = makeEngine();
    const auto again =
        repair.runGrid({findWorkload("gcc95")}, fastOptions());

    const SweepCounters c = repair.counters();
    EXPECT_EQ(c.cache_errors, 1u);
    EXPECT_EQ(c.cells_computed, 1u);
    EXPECT_EQ(c.cache_hits, 4u);
    EXPECT_EQ(c.cache_stores, 1u); // the repaired entry
    // The recomputed cell is indistinguishable from the original run.
    ASSERT_EQ(again[0].runs.size(), original[0].runs.size());
    for (std::size_t j = 0; j < again[0].runs.size(); ++j)
        EXPECT_EQ(serializeSimResult(again[0].runs[j]),
                  serializeSimResult(original[0].runs[j]));

    // And the store repaired the entry: a third run is all hits.
    SweepEngine verify = makeEngine();
    verify.runGrid({findWorkload("gcc95")}, fastOptions());
    EXPECT_EQ(verify.counters().cache_hits, 5u);
    EXPECT_EQ(verify.counters().cache_errors, 0u);
}

TEST_F(SweepEngineTest, UseCacheFalseWritesNothing)
{
    SweepEngine engine = makeEngine(/*use_cache=*/false);
    EXPECT_FALSE(engine.cacheEnabled());
    engine.runGrid({findWorkload("gcc95")}, fastOptions());

    const SweepCounters c = engine.counters();
    EXPECT_EQ(c.cells_computed, 5u);
    EXPECT_EQ(c.cache_hits, 0u);
    EXPECT_EQ(c.cache_stores, 0u);
    EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(SweepEngineTest, CountersAccumulateAcrossCalls)
{
    SweepEngine engine = makeEngine();
    engine.runGrid({findWorkload("gcc95")}, fastOptions());
    engine.runGrid({findWorkload("gcc95")}, fastOptions());

    SweepCounters c = engine.counters();
    EXPECT_EQ(c.cells_total, 10u);
    EXPECT_EQ(c.cells_computed, 5u);
    EXPECT_EQ(c.cache_hits, 5u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);

    engine.resetCounters();
    c = engine.counters();
    EXPECT_EQ(c.cells_total, 0u);
    EXPECT_EQ(c.wall_seconds, 0.0);
}

TEST_F(SweepEngineTest, RunConfigsCachesByTraceContent)
{
    const SweepOptions opt = fastOptions();
    const WorkloadSpec &spec = findWorkload("gcc95");
    const Trace trace = spec.makeTrace(opt.trace_length);
    const std::vector<PipelineConfig> configs{opt.configAtDepth(3),
                                              opt.configAtDepth(7)};

    SweepEngine cold = makeEngine();
    const auto a = cold.runConfigs(trace, configs);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(cold.counters().cells_computed, 2u);
    EXPECT_EQ(cold.counters().cache_stores, 2u);

    // Every entry sits at its traceCellKey address, the one callers
    // outside the engine (perfbench's golden_cells) probe themselves.
    const ResultCache store(dir_.string());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto entry = store.load(traceCellKey(trace, configs[i]));
        ASSERT_TRUE(entry.has_value()) << i;
        EXPECT_EQ(serializeSimResult(*entry), serializeSimResult(a[i]));
    }

    // The warm call hashes the trace records once, not once per
    // config.
    SpanTracer::instance().clear();
    SpanTracer::instance().setEnabled(true);
    SweepEngine warm = makeEngine();
    const auto b = warm.runConfigs(trace, configs);
    SpanTracer::instance().setEnabled(false);
    const auto rollups = SpanTracer::instance().rollups();
    SpanTracer::instance().clear();
    ASSERT_EQ(rollups.count("sweep.key"), 1u);
    EXPECT_EQ(rollups.at("sweep.key").count, 1u);
    EXPECT_EQ(warm.counters().cache_hits, 2u);
    EXPECT_EQ(warm.counters().cells_computed, 0u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(serializeSimResult(a[i]), serializeSimResult(b[i]));

    // A different trace (different seed) must not alias.
    WorkloadSpec reseeded = spec;
    reseeded.gen.seed ^= 0x5a5a;
    const Trace other = reseeded.makeTrace(opt.trace_length);
    SweepEngine fresh = makeEngine();
    fresh.runConfigs(other, configs);
    EXPECT_EQ(fresh.counters().cache_hits, 0u);
    EXPECT_EQ(fresh.counters().cells_computed, 2u);
}

TEST_F(SweepEngineTest, SpecRunConfigsMatchesTheTraceForm)
{
    const SweepOptions opt = fastOptions();
    const WorkloadSpec &spec = findWorkload("websrv");
    std::vector<PipelineConfig> configs{opt.configAtDepth(3),
                                        opt.configAtDepth(7)};
    configs.push_back(opt.configAtDepth(5));
    configs.back().predictor = PredictorKind::Gshare;

    const auto by_spec =
        makeEngine(false).runConfigs(spec, opt.trace_length, configs);
    const auto by_trace = makeEngine(false).runConfigs(
        spec.makeTrace(opt.trace_length), configs);
    ASSERT_EQ(by_spec.size(), configs.size());
    ASSERT_EQ(by_trace.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(serializeSimResult(by_spec[i]),
                  serializeSimResult(by_trace[i]))
            << i;
    }
}

TEST_F(SweepEngineTest, SpecRunConfigsHitsTheCellRunGridStored)
{
    SweepOptions opt = fastOptions();
    opt.max_depth = 8;
    const WorkloadSpec &spec = findWorkload("db1");
    const auto sweeps = makeEngine().runGrid({spec}, opt);

    SweepEngine warm = makeEngine();
    const auto runs = warm.runConfigs(spec, opt.trace_length,
                                      {opt.configAtDepth(8)});
    ASSERT_EQ(runs.size(), 1u);
    const SweepCounters c = warm.counters();
    EXPECT_EQ(c.cache_hits, 1u);
    EXPECT_EQ(c.cells_computed, 0u);
    EXPECT_EQ(c.traces_generated, 0u);
    EXPECT_EQ(serializeSimResult(runs[0]),
              serializeSimResult(sweeps[0].runs.back()));
}

TEST_F(SweepEngineTest, AssemblyCalibratesAtTheReferenceDepth)
{
    // The default depth range (2..25) under a config list of 5..12:
    // runs[reference_depth - min_depth] is the depth-11 run, so an
    // assembly that indexes instead of searching calibrates there.
    SweepOptions opt;
    opt.trace_length = 20000;
    opt.warmup_instructions = 5000;
    const WorkloadSpec &spec = findWorkload("gcc95");
    std::vector<PipelineConfig> configs;
    for (int p = 5; p <= 12; ++p)
        configs.push_back(opt.configAtDepth(p));

    SweepEngineOptions engine_options;
    engine_options.use_cache = false;
    engine_options.threads = 1;
    engine_options.max_retries = 0;

    SweepEngine engine(engine_options);
    std::vector<SimResult> runs =
        engine.runConfigs(spec, opt.trace_length, configs);
    const SimResult reference = runs[8 - 5];
    ASSERT_EQ(reference.depth, 8);
    const ActivityPowerModel calibrated =
        ActivityPowerModel().withLeakageFraction(reference,
                                                 opt.leakage_fraction);

    const SweepResult sweep =
        assembleSweep(spec, opt, std::move(runs), engine.lastFailures());
    ASSERT_EQ(sweep.runs.size(), configs.size());
    EXPECT_DOUBLE_EQ(sweep.extracted.alpha,
                     extractMachineParams(reference).alpha);
    EXPECT_DOUBLE_EQ(sweep.extracted.hazard_ratio,
                     extractMachineParams(reference).hazard_ratio);
    for (const SimResult &r : sweep.runs) {
        EXPECT_DOUBLE_EQ(sweep.power_model.metric(r, 3.0, true),
                         calibrated.metric(r, 3.0, true))
            << r.depth;
    }

    // One quarantined non-reference cell: the calibration stays at
    // depth 8 and the fit runs over the live cells only.
    std::vector<SimResult> holed;
    {
        ScopedFailpoints guard("sweep.cell.simulate=once");
        holed = engine.runConfigs(spec, opt.trace_length, configs);
    }
    const std::vector<FailureRecord> failures = engine.lastFailures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].depth, 8);
    const SweepResult partial =
        assembleSweep(spec, opt, std::move(holed), failures);
    EXPECT_FALSE(partial.complete());

    std::vector<double> depths, metric;
    for (const SimResult &r : partial.runs) {
        if (r.cycles == 0) {
            EXPECT_EQ(r.depth, failures[0].depth);
            continue;
        }
        depths.push_back(r.depth);
        metric.push_back(calibrated.metric(r, 3.0, true));
    }
    ASSERT_EQ(depths.size(), configs.size() - 1);
    const CubicPeak expected = fitCubicPeak(depths, metric);
    bool interior = false;
    EXPECT_DOUBLE_EQ(partial.cubicFitOptimum(3.0, true, &interior),
                     expected.x);
    EXPECT_EQ(interior, expected.interior);
}

TEST_F(SweepEngineTest, PrintSummaryReportsCounters)
{
    SweepEngine engine = makeEngine();
    engine.runGrid({findWorkload("gcc95")}, fastOptions());

    std::ostringstream os;
    engine.printSummary(os);
    std::istringstream text(os.str());
    std::string title, header, rule, values, next;
    ASSERT_TRUE(std::getline(text, title) && std::getline(text, header) &&
                std::getline(text, rule) && std::getline(text, values) &&
                std::getline(text, next));
    EXPECT_EQ(title, "sweep engine [cache " + dir_.string() + "]");

    // One table, its columns pinned, and nothing after its one row
    // but the metrics snapshot: the counts are printed once.
    std::istringstream words(header);
    const std::vector<std::string> columns{
        std::istream_iterator<std::string>(words), {}};
    EXPECT_EQ(columns, (std::vector<std::string>{
                           "cells", "computed", "cache_hit", "hit_pct",
                           "stored", "corrupt", "retried", "quar", "skip",
                           "traces", "Minstr", "wall_s", "sim_MIPS"}));
    EXPECT_EQ(next.rfind("metrics:", 0), 0u) << next;
    EXPECT_EQ(os.str().find("cache efficiency:"), std::string::npos);

    std::ostringstream off;
    SweepEngineOptions uncached;
    uncached.use_cache = false;
    SweepEngine(uncached).printSummary(off);
    EXPECT_NE(off.str().find("cache off"), std::string::npos);
}

TEST(SweepEngineDeath, BadDepthRangeRejected)
{
    SweepOptions opt = fastOptions();
    opt.min_depth = 9;
    opt.max_depth = 5;
    SweepEngineOptions engine_options;
    engine_options.use_cache = false;
    EXPECT_DEATH(SweepEngine(engine_options)
                     .runGrid({findWorkload("gcc95")}, opt),
                 "bad depth range");
}

} // namespace
} // namespace pipedepth
