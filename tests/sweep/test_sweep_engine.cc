/**
 * @file
 * SweepEngine behaviour tests: the registry's tally of cold and warm
 * runs (read as the change across each call), one result log per
 * trace (one append per walked group, a truncated log's complete
 * frames served), silent recomputation of damaged or torn frames and
 * of frames that are not the cell's run (non-conserving, or another
 * depth's or trace length's), the --no-cache escape hatch,
 * explicit-trace (runConfigs) caching and its one trace hash per call,
 * the spec form of runConfigs (same bytes as the trace form, runGrid's
 * cache addresses), the shared SweepResult assembly, the summary that
 * prints the tally once and agrees with the run manifest, and the
 * bound of one resident replay per worker. Byte-level determinism
 * lives in test_engine_determinism.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "calib/extract.hh"
#include "common/failpoint.hh"
#include "common/json.hh"
#include "support/cached_cells.hh"
#include "support/metric_deltas.hh"
#include "sweep/cache_key.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep_engine.hh"
#include "telemetry/manifest.hh"
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
    makeEngine(bool use_cache = true, unsigned threads = 0)
    {
        SweepEngineOptions opt;
        opt.use_cache = use_cache;
        opt.cache_dir = dir_.string();
        opt.threads = threads;
        return SweepEngine(opt);
    }

    /** Files in the cache directory, each of which must be a log. */
    std::size_t
    logFileCount() const
    {
        std::size_t n = 0;
        for (const auto &e : std::filesystem::directory_iterator(dir_)) {
            EXPECT_EQ(e.path().extension(), ".simlog") << e.path();
            ++n;
        }
        return n;
    }

    /** The one log file in the cache directory (empty if none). */
    std::filesystem::path
    onlyLog() const
    {
        EXPECT_EQ(logFileCount(), 1u);
        for (const auto &e : std::filesystem::directory_iterator(dir_))
            return e.path();
        return {};
    }

    std::filesystem::path dir_;
};

TEST_F(SweepEngineTest, ColdRunAccountsEveryCell)
{
    SweepEngine engine = makeEngine();
    ASSERT_TRUE(engine.cacheEnabled());
    EXPECT_EQ(engine.cacheDir(), dir_.string());

    const MetricDeltas tally;
    const auto sweeps =
        engine.runGrid({findWorkload("gcc95")}, fastOptions());
    ASSERT_EQ(sweeps.size(), 1u);
    ASSERT_EQ(sweeps[0].runs.size(), 5u);

    std::uint64_t instructions = 0;
    for (const SimResult &r : sweeps[0].runs)
        instructions += r.instructions;
    EXPECT_EQ(tally["sweep.cell.schedule"], 5u);
    EXPECT_EQ(tally["sweep.cell.compute"], 5u);
    EXPECT_EQ(tally["sweep.cell.cached"], 0u);
    EXPECT_EQ(tally["cache.entry.store"], 5u);
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u);
    EXPECT_EQ(tally["sweep.trace.generate"], 1u);
    EXPECT_EQ(tally["sweep.instructions.simulate"], instructions);
    EXPECT_GT(instructions, 0u);
    EXPECT_EQ(tally["sweep.call.wall_us"], 1u); // one sample per call
    EXPECT_EQ(cachedCellCount(dir_), 5u);
    EXPECT_EQ(logFileCount(), 1u);
}

TEST_F(SweepEngineTest, WarmRunServesEverythingFromCache)
{
    makeEngine().runGrid({findWorkload("gcc95")}, fastOptions());

    const MetricDeltas tally;
    SweepEngine warm = makeEngine();
    const auto sweeps =
        warm.runGrid({findWorkload("gcc95")}, fastOptions());
    ASSERT_EQ(sweeps[0].runs.size(), 5u);
    // Hits carry the identity the caller asked for.
    for (const auto &r : sweeps[0].runs)
        EXPECT_EQ(r.workload, "gcc95");

    EXPECT_EQ(tally["sweep.cell.schedule"], 5u);
    EXPECT_EQ(tally["sweep.cell.compute"], 0u);
    EXPECT_EQ(tally["sweep.cell.cached"], 5u);
    EXPECT_EQ(tally["cache.entry.store"], 0u);
    EXPECT_EQ(tally["sweep.trace.generate"], 0u);
    EXPECT_EQ(tally["sweep.instructions.simulate"], 0u);
}

TEST_F(SweepEngineTest, DifferentOptionsMissTheCache)
{
    makeEngine().runGrid({findWorkload("gcc95")}, fastOptions());

    SweepOptions longer = fastOptions();
    longer.trace_length = 25000;
    const MetricDeltas tally;
    SweepEngine engine = makeEngine();
    engine.runGrid({findWorkload("gcc95")}, longer);
    EXPECT_EQ(tally["sweep.cell.cached"], 0u);
    EXPECT_EQ(tally["sweep.cell.compute"], 5u);
}

TEST_F(SweepEngineTest, CorruptEntryIsRecomputedSilently)
{
    // One thread: the five cells form groups of 4 and 1, appended in
    // that order, so the log holds five frames, and each run reads it
    // once per group.
    const auto original = makeEngine(true, 1).runGrid(
        {findWorkload("gcc95")}, fastOptions());
    const std::filesystem::path log = onlyLog();
    const std::uintmax_t frame = std::filesystem::file_size(log) / 5;
    std::vector<char> pristine(static_cast<std::size_t>(5 * frame));
    std::ifstream(log, std::ios::binary)
        .read(pristine.data(), static_cast<std::streamsize>(5 * frame));

    // Flip one bit of a key byte, then of a payload byte, of the
    // third frame: either costs that frame's cell alone.
    for (const std::uintmax_t offset : {2 * frame + 3, 2 * frame + 60}) {
        std::vector<char> bytes = pristine;
        bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
        std::ofstream(log, std::ios::binary | std::ios::trunc)
            .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

        // Both groups' reads count the damaged frame.
        const MetricDeltas repair_tally;
        const auto again = makeEngine(true, 1).runGrid(
            {findWorkload("gcc95")}, fastOptions());
        EXPECT_EQ(repair_tally["cache.probe.corrupt"], 2u) << offset;
        EXPECT_EQ(repair_tally["sweep.cell.compute"], 1u) << offset;
        EXPECT_EQ(repair_tally["sweep.cell.cached"], 4u) << offset;
        EXPECT_EQ(repair_tally["cache.entry.store"], 1u) << offset;
        // The recomputed cells are indistinguishable from the original
        // run.
        ASSERT_EQ(again[0].runs.size(), original[0].runs.size());
        for (std::size_t j = 0; j < again[0].runs.size(); ++j)
            EXPECT_EQ(serializeSimResult(again[0].runs[j]),
                      serializeSimResult(original[0].runs[j]));

        // And the walk appended the cell's frame behind the damaged
        // one: a third run is all hits.
        const MetricDeltas verify_tally;
        makeEngine().runGrid({findWorkload("gcc95")}, fastOptions());
        EXPECT_EQ(verify_tally["sweep.cell.cached"], 5u) << offset;
        EXPECT_EQ(verify_tally["sweep.cell.compute"], 0u) << offset;
        ASSERT_EQ(onlyLog(), log);
    }
}

TEST_F(SweepEngineTest, TruncatedLogServesCompleteFramesAndWalksTheRest)
{
    // Depths 2..5 on one thread: one group, one append of four frames.
    SweepOptions opt = fastOptions();
    opt.max_depth = 5;
    const WorkloadSpec &spec = findWorkload("gcc95");
    const auto original = makeEngine(true, 1).runGrid({spec}, opt);
    const std::filesystem::path log = onlyLog();
    const std::uintmax_t frame = std::filesystem::file_size(log) / 4;
    auto expectOriginalBytes = [&](const std::vector<SweepResult> &got) {
        ASSERT_EQ(got.size(), 1u);
        ASSERT_EQ(got[0].runs.size(), 4u);
        for (std::size_t j = 0; j < got[0].runs.size(); ++j)
            EXPECT_EQ(serializeSimResult(got[0].runs[j]),
                      serializeSimResult(original[0].runs[j]))
                << j;
    };

    // A kill mid-append leaves a short tail: two complete frames and
    // half of the third.
    std::filesystem::resize_file(log, 2 * frame + frame / 2);
    const MetricDeltas tally;
    expectOriginalBytes(makeEngine(true, 1).runGrid({spec}, opt));
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u);
    EXPECT_EQ(tally["sweep.cell.cached"], 2u);
    EXPECT_EQ(tally["sweep.cell.compute"], 2u);

    // The frames appended behind the torn tail do not align with the
    // frames before it: the next read skips the torn bytes to them and
    // serves every cell.
    const MetricDeltas warm_tally;
    expectOriginalBytes(makeEngine(true, 1).runGrid({spec}, opt));
    EXPECT_EQ(warm_tally["cache.probe.corrupt"], 1u);
    EXPECT_EQ(warm_tally["sweep.cell.cached"], 4u);
    EXPECT_EQ(warm_tally["sweep.cell.compute"], 0u);
}

TEST_F(SweepEngineTest, EntryThatIsNotTheCellsRunIsRecomputed)
{
    // Checksum-clean frames under the cell's key, each the only frame
    // of its trace's log, that its run cannot have left. The first
    // three break the ledger's invariants and would abort calibration;
    // the last two are conserving runs of another depth, and of
    // another trace length (every timed instruction is in the trace).
    const SweepOptions opt = fastOptions();
    const WorkloadSpec &spec = findWorkload("db1");
    const std::vector<PipelineConfig> configs = {opt.configAtDepth(4)};
    const SimResult clean =
        makeEngine().runConfigs(spec, opt.trace_length, configs)[0];
    const ResultCache cache(dir_.string());
    const CacheKey log = specCellHasher(spec, opt.trace_length).key();
    const CacheKey key = simCellKey(spec, opt.trace_length, configs[0]);
    auto served = [&]() -> std::optional<SimResult> {
        for (const CachedCell &cell : cache.read(log)) {
            if (cell.key == key)
                return cell.result;
        }
        return std::nullopt;
    };
    ASSERT_TRUE(served().has_value());

    std::vector<SimResult> bad(5, clean);
    bad[0].ledger_residual = 1;
    bad[1].other_stall_cycles += 1;
    bad[2].instructions = 0;
    bad[3].depth = 5;
    bad[4].instructions += 1;
    for (std::size_t i = 0; i < bad.size(); ++i) {
        std::filesystem::remove(cache.logPath(log));
        ASSERT_TRUE(cache.append(log, {CachedCell{key, bad[i]}}));
        const MetricDeltas tally;
        const SimResult again =
            makeEngine().runConfigs(spec, opt.trace_length, configs)[0];
        const bool conserving = i >= 3;
        EXPECT_EQ(tally["cache.probe.corrupt"], conserving ? 0u : 1u) << i;
        EXPECT_EQ(tally["sweep.cell.compute"], 1u) << i;
        EXPECT_EQ(serializeSimResult(again), serializeSimResult(clean))
            << i;
        // The walk appended the clean run behind the bad frame: a
        // re-run is served it.
        const auto frame = served();
        ASSERT_TRUE(frame.has_value()) << i;
        EXPECT_EQ(serializeSimResult(*frame), serializeSimResult(clean))
            << i;
        const MetricDeltas rerun_tally;
        const SimResult rerun =
            makeEngine().runConfigs(spec, opt.trace_length, configs)[0];
        EXPECT_EQ(rerun_tally["sweep.cell.cached"], 1u) << i;
        EXPECT_EQ(serializeSimResult(rerun), serializeSimResult(clean))
            << i;
    }
}

TEST_F(SweepEngineTest, ColdGridLeavesOneLogPerWorkload)
{
    // k workloads x 24 depths leave k logs and nothing else, however
    // many threads split the groups, and a warm re-run computes
    // nothing and returns the same bytes.
    SweepOptions opt = fastOptions();
    opt.max_depth = 25;
    opt.trace_length = 6000;
    opt.warmup_instructions = 2000;
    const std::vector<WorkloadSpec> specs = {
        findWorkload("gcc95"), findWorkload("db1"), findWorkload("swim")};
    for (const unsigned threads : {1u, 4u}) {
        std::filesystem::remove_all(dir_);
        const MetricDeltas cold_tally;
        const auto cold = makeEngine(true, threads).runGrid(specs, opt);
        EXPECT_EQ(cold_tally["sweep.cell.compute"], 72u) << threads;
        EXPECT_EQ(cold_tally["cache.entry.store"], 72u) << threads;
        EXPECT_EQ(logFileCount(), specs.size()) << threads;
        EXPECT_EQ(cachedCellCount(dir_), 72u) << threads;

        const MetricDeltas warm_tally;
        const auto warm = makeEngine(true, threads).runGrid(specs, opt);
        EXPECT_EQ(warm_tally["sweep.cell.compute"], 0u) << threads;
        EXPECT_EQ(warm_tally["sweep.cell.cached"], 72u) << threads;
        ASSERT_EQ(cold.size(), specs.size());
        ASSERT_EQ(warm.size(), specs.size());
        for (std::size_t s = 0; s < specs.size(); ++s) {
            for (std::size_t j = 0; j < cold[s].runs.size(); ++j) {
                EXPECT_EQ(serializeSimResult(warm[s].runs[j]),
                          serializeSimResult(cold[s].runs[j]))
                    << threads << " " << s << " " << j;
            }
        }
    }
}

TEST_F(SweepEngineTest, OneWorkloadSweepAppendsEveryGroupToOneLog)
{
    // Depths 2..25 of one workload on 4 threads: six 4-cell groups,
    // walked concurrently, each one append (one `cache.store` span of
    // four frames) to the workload's one log, and every frame reads
    // back.
    SweepOptions opt = fastOptions();
    opt.max_depth = 25;
    opt.trace_length = 6000;
    opt.warmup_instructions = 2000;
    const WorkloadSpec &spec = findWorkload("gcc95");
    SpanTracer::instance().clear();
    SpanTracer::instance().setEnabled(true);
    const auto sweeps = makeEngine(true, 4).runGrid({spec}, opt);
    SpanTracer::instance().setEnabled(false);
    std::ostringstream trace;
    SpanTracer::instance().writeChromeTrace(trace);
    SpanTracer::instance().clear();
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(trace.str(), &doc));
    std::size_t appends = 0;
    for (const JsonValue &event : doc.find("traceEvents")->array) {
        if (event.find("name")->string != "cache.store")
            continue;
        ++appends;
        const JsonValue *args = event.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->find("workload")->string, "gcc95");
        EXPECT_EQ(args->find("frames")->number, 4.0);
        EXPECT_GT(args->find("bytes")->number, 0.0);
    }
    EXPECT_EQ(appends, 6u);

    const std::filesystem::path log = onlyLog();
    EXPECT_EQ(logKeyOf(log), specCellHasher(spec, opt.trace_length).key());
    const std::vector<CachedCell> frames =
        ResultCache(dir_.string()).read(logKeyOf(log));
    ASSERT_EQ(frames.size(), 24u);
    ASSERT_EQ(sweeps.size(), 1u);
    for (const SimResult &run : sweeps[0].runs) {
        const CacheKey key =
            simCellKey(spec, opt.trace_length, opt.configAtDepth(run.depth));
        const auto frame = std::find_if(
            frames.begin(), frames.end(),
            [&](const CachedCell &c) { return c.key == key; });
        ASSERT_NE(frame, frames.end()) << run.depth;
        EXPECT_EQ(serializeSimResult(frame->result),
                  serializeSimResult(run));
    }
}

TEST_F(SweepEngineTest, UseCacheFalseWritesNothing)
{
    const MetricDeltas tally;
    SweepEngine engine = makeEngine(/*use_cache=*/false);
    EXPECT_FALSE(engine.cacheEnabled());
    engine.runGrid({findWorkload("gcc95")}, fastOptions());

    EXPECT_EQ(tally["sweep.cell.compute"], 5u);
    EXPECT_EQ(tally["sweep.cell.cached"], 0u);
    EXPECT_EQ(tally["cache.entry.store"], 0u);
    EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(SweepEngineTest, CountersAccumulateAcrossCalls)
{
    const MetricDeltas tally;
    SweepEngine engine = makeEngine();
    engine.runGrid({findWorkload("gcc95")}, fastOptions());
    engine.runGrid({findWorkload("gcc95")}, fastOptions());

    EXPECT_EQ(tally["sweep.cell.schedule"], 10u);
    EXPECT_EQ(tally["sweep.cell.compute"], 5u);
    EXPECT_EQ(tally["sweep.cell.cached"], 5u);
    EXPECT_EQ(tally["sweep.call.wall_us"], 2u);
}

TEST_F(SweepEngineTest, RunConfigsCachesByTraceContent)
{
    const SweepOptions opt = fastOptions();
    const WorkloadSpec &spec = findWorkload("gcc95");
    const Trace trace = spec.makeTrace(opt.trace_length);
    const std::vector<PipelineConfig> configs{opt.configAtDepth(3),
                                              opt.configAtDepth(7)};

    const MetricDeltas cold_tally;
    SweepEngine cold = makeEngine();
    const auto a = cold.runConfigs(trace, configs);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(cold_tally["sweep.cell.compute"], 2u);
    EXPECT_EQ(cold_tally["cache.entry.store"], 2u);

    // Every frame sits under its traceCellKey in the trace's one log,
    // named by the hasher state those keys share.
    const std::vector<CachedCell> frames =
        ResultCache(dir_.string()).read(traceCellHasher(trace).key());
    ASSERT_EQ(frames.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(frames[i].key, traceCellKey(trace, configs[i])) << i;
        EXPECT_EQ(serializeSimResult(frames[i].result),
                  serializeSimResult(a[i]));
    }

    // The warm call hashes the trace records once, not once per
    // config.
    SpanTracer::instance().clear();
    SpanTracer::instance().setEnabled(true);
    const MetricDeltas warm_tally;
    SweepEngine warm = makeEngine();
    const auto b = warm.runConfigs(trace, configs);
    SpanTracer::instance().setEnabled(false);
    const auto rollups = SpanTracer::instance().rollups();
    SpanTracer::instance().clear();
    ASSERT_EQ(rollups.count("sweep.key"), 1u);
    EXPECT_EQ(rollups.at("sweep.key").count, 1u);
    EXPECT_EQ(warm_tally["sweep.cell.cached"], 2u);
    EXPECT_EQ(warm_tally["sweep.cell.compute"], 0u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(serializeSimResult(a[i]), serializeSimResult(b[i]));

    // A different trace (different seed) must not alias.
    WorkloadSpec reseeded = spec;
    reseeded.gen.seed ^= 0x5a5a;
    const Trace other = reseeded.makeTrace(opt.trace_length);
    const MetricDeltas fresh_tally;
    SweepEngine fresh = makeEngine();
    fresh.runConfigs(other, configs);
    EXPECT_EQ(fresh_tally["sweep.cell.cached"], 0u);
    EXPECT_EQ(fresh_tally["sweep.cell.compute"], 2u);
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

    const MetricDeltas tally;
    SweepEngine warm = makeEngine();
    const auto runs = warm.runConfigs(spec, opt.trace_length,
                                      {opt.configAtDepth(8)});
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(tally["sweep.cell.cached"], 1u);
    EXPECT_EQ(tally["sweep.cell.compute"], 0u);
    EXPECT_EQ(tally["sweep.trace.generate"], 0u);
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

    SweepEngine engine(engine_options);
    std::vector<SimResult> runs =
        engine.runConfigs(spec, opt.trace_length, configs);
    const SimResult reference = runs[8 - 5];
    ASSERT_EQ(reference.depth, 8);
    const ActivityPowerModel calibrated =
        ActivityPowerModel().withLeakageFraction(reference,
                                                 opt.leakage_fraction);

    const SweepResult sweep = assembleSweep(spec, opt, std::move(runs));
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
}

TEST_F(SweepEngineTest, PrintSummaryReportsCounters)
{
    SweepEngine engine = makeEngine();
    engine.runGrid({findWorkload("gcc95")}, fastOptions());

    std::ostringstream os;
    engine.printSummary(os);
    std::istringstream text(os.str());
    std::string title, next;
    ASSERT_TRUE(std::getline(text, title) && std::getline(text, next));
    EXPECT_EQ(title, "sweep engine [cache " + dir_.string() + "]");

    // The header, then the registry's snapshot: the counts are
    // printed once.
    EXPECT_EQ(next, "metrics:");
    EXPECT_NE(os.str().find("\n  sweep.cell.compute "), std::string::npos);

    std::ostringstream off;
    SweepEngineOptions uncached;
    uncached.use_cache = false;
    SweepEngine(uncached).printSummary(off);
    EXPECT_NE(off.str().find("cache off"), std::string::npos);
}

TEST_F(SweepEngineTest, ManifestAndSummaryShareOneTally)
{
    // A faulted cold call quarantines one cell; the warm call serves
    // the rest from the cache and computes the hole. After each, the
    // manifest's cell counts are the registry's change since the
    // engine was built, and the summary lists each metric once.
    const MetricDeltas tally;
    SweepEngineOptions options;
    options.cache_dir = dir_.string();
    options.threads = 1;
    SweepEngine engine(options);
    RunManifest manifest;
    engine.attachManifest(&manifest);

    ScopedFailpoints guard("sweep.cell.simulate=once");
    for (const char *call : {"cold", "warm"}) {
        engine.runSweep(findWorkload("db1"), fastOptions());

        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(manifest.toJson(), &doc)) << call;
        const JsonValue *counts = doc.find("cell_counts");
        ASSERT_NE(counts, nullptr) << call;
        for (const auto &[field, metric] :
             {std::pair<const char *, const char *>{"computed",
                                                    "sweep.cell.compute"},
              {"cached", "sweep.cell.cached"},
              {"quarantined", "sweep.cell.quarantine"}}) {
            ASSERT_NE(counts->find(field), nullptr) << call;
            EXPECT_EQ(counts->find(field)->number,
                      static_cast<double>(tally[metric]))
                << call << ": " << field;
        }

        // Counters that would count an engine event twice, spelled
        // in halves so that a search of the tree for them finds only
        // this check.
        std::ostringstream os;
        engine.printSummary(os);
        for (const char *gone :
             {"sweep.cell." "fail", "sim.run." "complete",
              "sim.instructions." "replay", "ledger.run." "finalize",
              "cache.probe." "hit", "cache.probe." "total"}) {
            EXPECT_EQ(os.str().find(gone), std::string::npos)
                << call << ": " << gone;
        }
        std::istringstream lines(os.str());
        std::string line;
        ASSERT_TRUE(std::getline(lines, line) && std::getline(lines, line));
        ASSERT_EQ(line, "metrics:") << call;
        std::set<std::string> names;
        while (std::getline(lines, line)) {
            std::istringstream words(line);
            std::string name;
            words >> name;
            EXPECT_TRUE(names.insert(name).second)
                << call << ": " << name << " listed twice";
        }
    }
    EXPECT_EQ(tally["sweep.cell.quarantine"], 1u);
    EXPECT_EQ(tally["sweep.cell.compute"], 5u);
    EXPECT_EQ(tally["sweep.cell.cached"], 4u);
}

TEST_F(SweepEngineTest, ReplaysResidentAtMostOnePerWorker)
{
    // A replay lives from its workload's first walked miss to the end
    // of the workload's last group, so however many workloads a grid
    // has, it holds at most one replay per worker thread.
    SweepOptions opt = fastOptions();
    opt.max_depth = 5;
    opt.trace_length = 6000;
    opt.warmup_instructions = 2000;
    const std::vector<WorkloadSpec> specs(workloadCatalog().begin(),
                                          workloadCatalog().begin() + 12);
    const Gauge &resident =
        MetricsRegistry::instance().gauge("sweep.replay.resident");
    SweepEngineOptions options;
    options.use_cache = false;
    for (unsigned threads : {1u, 3u}) {
        options.threads = threads;
        ASSERT_EQ(SweepEngine(options).runGrid(specs, opt).size(),
                  specs.size());
        EXPECT_GE(resident.value(), 1) << threads;
        EXPECT_LE(resident.value(), static_cast<std::int64_t>(threads))
            << threads;
    }

    // One workload at depths 2..25 on 4 threads: six 4-cell groups
    // share one replay, so it must outlive every group but the last.
    opt.max_depth = 25;
    const WorkloadSpec &spec = findWorkload("gcc95");
    options.threads = 4;
    SpanTracer::instance().clear();
    SpanTracer::instance().setEnabled(true);
    const MetricDeltas tally;
    const auto fused = SweepEngine(options).runGrid({spec}, opt);
    SpanTracer::instance().setEnabled(false);
    const auto rollups = SpanTracer::instance().rollups();
    SpanTracer::instance().clear();
    ASSERT_EQ(rollups.count("sweep.cell.fused"), 1u);
    EXPECT_EQ(rollups.at("sweep.cell.fused").count, 6u);
    EXPECT_EQ(tally["sweep.trace.generate"], 1u);
    EXPECT_EQ(resident.value(), 1);

    options.threads = 1;
    const auto alone = SweepEngine(options).runGrid({spec}, opt);
    ASSERT_EQ(fused.size(), 1u);
    ASSERT_EQ(alone.size(), 1u);
    ASSERT_EQ(fused[0].runs.size(), 24u);
    ASSERT_EQ(alone[0].runs.size(), 24u);
    for (std::size_t j = 0; j < fused[0].runs.size(); ++j) {
        EXPECT_EQ(serializeSimResult(fused[0].runs[j]),
                  serializeSimResult(alone[0].runs[j]))
            << j;
    }
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
