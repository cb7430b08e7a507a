/**
 * @file
 * Determinism regression tests: the same workload spec and options
 * must produce byte-identical SimResults whether the grid runs on one
 * thread, on many threads, through runGrid or runConfigs, or is
 * replayed from the on-disk cache.
 * This is what makes cached sweeps trustworthy — a cache hit is
 * provably the same answer, not a similar one.
 *
 * The GoldenHashes tests go further and pin the results themselves:
 * a checked-in table (golden_sim_hashes.inc) holds the content hash
 * of every catalog workload's serialized SimResult at depths
 * {2, 7, 14, 25}. They are the contract that performance work on the
 * simulator must not change behaviour — regenerate the table with
 * sim_golden_dump only for an intentional semantics change. Over
 * the same cells they assert that Retire's active cycles equal the
 * ledger's base work plus superscalar loss, the identity the walk
 * derives them from.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/metric_deltas.hh"
#include "sweep/cache_key.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep_engine.hh"
#include "uarch/simulator.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

/** One pinned cell of the golden table: the content hash of the full
 *  serialized result, and the narrower ledgerHash of the stall-cycle
 *  decomposition (so an attribution drift is named as such). */
struct GoldenCell
{
    const char *workload;
    int depth;
    std::uint64_t hash;
    std::uint64_t ledger_hash;
};

const GoldenCell kGoldenCells[] = {
#include "golden_sim_hashes.inc"
};

constexpr std::size_t kGoldenLength = 30000;
constexpr std::size_t kGoldenWarmup = 10000;
const int kGoldenDepths[] = {2, 7, 14, 25};

/** FNV-1a over the canonical serialized form — the same hash
 *  sim_golden_dump prints, so tables regenerate byte-for-byte. */
std::uint64_t
resultHash(const SimResult &r)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : serializeSimResult(r))
        h = (h ^ b) * 1099511628211ull;
    return h;
}

SweepOptions
goldenOptions()
{
    SweepOptions opt;
    opt.trace_length = kGoldenLength;
    opt.warmup_instructions = kGoldenWarmup;
    return opt;
}

std::map<std::pair<std::string, int>, std::pair<std::uint64_t, std::uint64_t>>
goldenTable()
{
    std::map<std::pair<std::string, int>,
             std::pair<std::uint64_t, std::uint64_t>>
        t;
    for (const GoldenCell &c : kGoldenCells)
        t[{c.workload, c.depth}] = {c.hash, c.ledger_hash};
    return t;
}

/** How a golden check hands each workload to the engine: as a Trace
 *  the test generated, or as its spec, which the engine generates
 *  straight into a replay buffer. */
enum class GoldenPath
{
    Trace,
    Spec,
};

/** Run the whole catalog at the golden depths on @p engine and check
 *  every cell's hash against the table. @p label names the pass in
 *  failure messages. */
void
checkCatalogAgainstGolden(SweepEngine &engine, const char *label,
                          GoldenPath path = GoldenPath::Trace)
{
    const auto golden = goldenTable();
    const SweepOptions opt = goldenOptions();
    std::vector<PipelineConfig> configs;
    for (int p : kGoldenDepths)
        configs.push_back(opt.configAtDepth(p));

    std::size_t checked = 0;
    for (const WorkloadSpec &spec : workloadCatalog()) {
        const std::vector<SimResult> runs =
            path == GoldenPath::Spec
                ? engine.runConfigs(spec, kGoldenLength, configs)
                : engine.runConfigs(spec.makeTrace(kGoldenLength), configs);
        ASSERT_EQ(runs.size(), configs.size());
        for (const SimResult &r : runs) {
            const auto it = golden.find({spec.name, r.depth});
            ASSERT_NE(it, golden.end())
                << label << ": workload " << spec.name << " depth "
                << r.depth << " missing from golden_sim_hashes.inc "
                << "(regenerate with sim_golden_dump)";
            EXPECT_EQ(resultHash(r), it->second.first)
                << label << ": result bytes changed for workload "
                << spec.name << " at depth " << r.depth
                << " — simulator semantics drifted (regenerate the "
                << "table only if the change is intentional)";
            EXPECT_EQ(ledgerHash(r), it->second.second)
                << label << ": stall-cycle attribution changed for "
                << "workload " << spec.name << " at depth " << r.depth
                << " — a cycle moved between ledger buckets "
                << "(regenerate the table only if the change is "
                << "intentional)";
            // Retire cycles never decrease, so Retire's active cycles
            // are the distinct retire cycles the ledger splits into
            // base work and superscalar loss; the walk derives them
            // from the ledger, and the table pins that it may.
            EXPECT_EQ(r.units[static_cast<std::size_t>(Unit::Retire)]
                          .active_cycles,
                      r.base_work_cycles + r.superscalar_loss_cycles)
                << label << ": workload " << spec.name << " depth "
                << r.depth;
            ++checked;
        }
    }
    // Every pinned cell was exercised: catalog shrinkage would
    // otherwise silently skip table rows.
    EXPECT_EQ(checked, golden.size()) << label;
}

SweepOptions
fastOptions()
{
    SweepOptions opt;
    opt.min_depth = 2;
    opt.max_depth = 10;
    opt.reference_depth = 8;
    opt.trace_length = 30000;
    opt.warmup_instructions = 10000;
    return opt;
}

std::vector<WorkloadSpec>
sampleSpecs()
{
    // One integer and one FP workload: different unit activity.
    return {findWorkload("gcc95"), findWorkload("swim")};
}

/** The canonical byte form of every run of a grid result. */
std::vector<std::vector<std::uint8_t>>
measurementBytes(const std::vector<SweepResult> &sweeps)
{
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto &s : sweeps)
        for (const auto &r : s.runs)
            out.push_back(serializeSimResult(r));
    return out;
}

/** Engine with caching off and a fixed worker count. */
SweepEngine
uncachedEngine(unsigned threads)
{
    SweepEngineOptions opt;
    opt.threads = threads;
    opt.use_cache = false;
    return SweepEngine(opt);
}

TEST(EngineDeterminism, OneThreadVsManyThreadsByteIdentical)
{
    SweepEngine serial = uncachedEngine(1);
    SweepEngine parallel = uncachedEngine(8);

    const MetricDeltas serial_tally;
    const auto a = serial.runGrid(sampleSpecs(), fastOptions());
    const std::uint64_t serial_computed = serial_tally["sweep.cell.compute"];
    const MetricDeltas parallel_tally;
    const auto b = parallel.runGrid(sampleSpecs(), fastOptions());

    EXPECT_GT(serial_computed, 0u);
    EXPECT_EQ(parallel_tally["sweep.cell.compute"], serial_computed);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(measurementBytes(a), measurementBytes(b));
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec.name, b[i].spec.name);
        for (std::size_t j = 0; j < a[i].runs.size(); ++j) {
            EXPECT_EQ(a[i].runs[j].workload, b[i].runs[j].workload);
            // Configurations must be equal too (compared by content
            // hash, which covers every field).
            StableHasher ha, hb;
            hashPipelineConfig(ha, a[i].runs[j].config);
            hashPipelineConfig(hb, b[i].runs[j].config);
            EXPECT_EQ(ha.key(), hb.key());
        }
    }
    // Identical measurements imply identical derived analysis.
    EXPECT_EQ(a[0].metric(3.0, true), b[0].metric(3.0, true));
    EXPECT_EQ(a[0].extracted.alpha, b[0].extracted.alpha);
    EXPECT_EQ(a[0].extracted.gamma, b[0].extracted.gamma);
}

TEST(EngineDeterminism, CacheReplayByteIdentical)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "pipedepth-determinism-replay";
    std::filesystem::remove_all(dir);

    SweepEngineOptions opt;
    opt.cache_dir = dir.string();

    const MetricDeltas cold_tally;
    SweepEngine cold(opt);
    const auto computed = cold.runGrid(sampleSpecs(), fastOptions());
    const std::uint64_t cells = cold_tally["sweep.cell.schedule"];
    EXPECT_GT(cells, 0u);
    EXPECT_EQ(cold_tally["sweep.cell.cached"], 0u);
    EXPECT_EQ(cold_tally["sweep.cell.compute"], cells);
    EXPECT_EQ(cold_tally["cache.entry.store"], cells);

    const MetricDeltas warm_tally;
    SweepEngine warm(opt);
    const auto replayed = warm.runGrid(sampleSpecs(), fastOptions());
    EXPECT_EQ(warm_tally["sweep.cell.schedule"], cells);
    EXPECT_EQ(warm_tally["sweep.cell.cached"], cells);
    EXPECT_EQ(warm_tally["sweep.cell.compute"], 0u);
    EXPECT_EQ(warm_tally["sweep.trace.generate"], 0u);

    EXPECT_EQ(measurementBytes(computed), measurementBytes(replayed));
    for (std::size_t i = 0; i < computed.size(); ++i) {
        EXPECT_EQ(computed[i].spec.name, replayed[i].spec.name);
        for (std::size_t j = 0; j < computed[i].runs.size(); ++j)
            EXPECT_EQ(computed[i].runs[j].workload,
                      replayed[i].runs[j].workload);
        // Derived analysis from replayed runs matches exactly.
        EXPECT_EQ(computed[i].metric(3.0, true),
                  replayed[i].metric(3.0, true));
        EXPECT_EQ(computed[i].latchCounts(), replayed[i].latchCounts());
    }

    std::filesystem::remove_all(dir);
}

TEST(EngineDeterminism, RunDepthSweepMatchesEngineGrid)
{
    // The compatibility wrapper and an explicit engine agree cell for
    // cell (runDepthSweep may additionally hit a shared cache, which
    // by the replay test above cannot change bytes).
    const SweepOptions opt = fastOptions();
    const WorkloadSpec spec = findWorkload("gcc95");

    SweepEngine engine = uncachedEngine(4);
    const SweepResult direct = engine.runSweep(spec, opt).value();
    const SweepResult wrapped = runDepthSweep(spec, opt).value();

    ASSERT_EQ(direct.runs.size(), wrapped.runs.size());
    for (std::size_t j = 0; j < direct.runs.size(); ++j)
        EXPECT_EQ(serializeSimResult(direct.runs[j]),
                  serializeSimResult(wrapped.runs[j]));
}

TEST(EngineDeterminism, GridConfigsAndDirectWalkByteIdentical)
{
    // runGrid and runConfigs are two plans over one cell pipeline. At
    // 4 threads each workload's 9 cells form groups of 4, 4 and 1, so
    // walks of 4 lanes and of 1 lane run; a direct simulate() of every
    // cell is the oracle for both.
    const SweepOptions opt = fastOptions();
    const std::vector<WorkloadSpec> specs = sampleSpecs();
    std::vector<PipelineConfig> configs;
    for (int p = opt.min_depth; p <= opt.max_depth; ++p)
        configs.push_back(opt.configAtDepth(p));

    SweepEngine grid_engine = uncachedEngine(4);
    SweepEngine configs_engine = uncachedEngine(4);
    const std::vector<SweepResult> grid = grid_engine.runGrid(specs, opt);
    ASSERT_EQ(grid.size(), specs.size());

    std::size_t checked = 0;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const Trace trace = specs[s].makeTrace(opt.trace_length);
        const std::vector<SimResult> runs =
            configs_engine.runConfigs(trace, configs);
        ASSERT_EQ(runs.size(), configs.size());
        ASSERT_EQ(grid[s].runs.size(), configs.size());
        for (std::size_t k = 0; k < configs.size(); ++k) {
            const std::vector<std::uint8_t> direct =
                serializeSimResult(simulate(trace, configs[k]));
            EXPECT_EQ(serializeSimResult(grid[s].runs[k]), direct)
                << "runGrid, " << specs[s].name << " depth "
                << configs[k].depth;
            EXPECT_EQ(serializeSimResult(runs[k]), direct)
                << "runConfigs, " << specs[s].name << " depth "
                << configs[k].depth;
            ++checked;
        }
    }

    // One group that mixes walk classes: at 1 thread a 4-config call
    // is a single group, and its one walk splits into an in-order
    // class (depths 4 and 7, not adjacent), an out-of-order class
    // that shares their annotations, and a second predictor's class,
    // which needs annotations of its own.
    SweepOptions ooo = opt;
    ooo.in_order = false;
    SweepOptions gshare = opt;
    gshare.predictor = PredictorKind::Gshare;
    const std::vector<PipelineConfig> mixed{
        opt.configAtDepth(4), ooo.configAtDepth(5),
        gshare.configAtDepth(6), opt.configAtDepth(7)};
    SweepEngine mixed_engine = uncachedEngine(1);
    const Trace trace = specs[0].makeTrace(opt.trace_length);
    const std::vector<SimResult> runs =
        mixed_engine.runConfigs(trace, mixed);
    ASSERT_EQ(runs.size(), mixed.size());
    for (std::size_t k = 0; k < mixed.size(); ++k) {
        EXPECT_EQ(serializeSimResult(runs[k]),
                  serializeSimResult(simulate(trace, mixed[k])))
            << "mixed group, config " << k;
        ++checked;
    }
    EXPECT_EQ(checked, 22u);
}

TEST(GoldenHashes, SingleThreadMatchesTable)
{
    SweepEngine engine = uncachedEngine(1);
    checkCatalogAgainstGolden(engine, "1-thread");
}

TEST(GoldenHashes, MultiThreadMatchesTable)
{
    SweepEngine engine = uncachedEngine(8);
    checkCatalogAgainstGolden(engine, "8-thread");
}

TEST(GoldenHashes, SpecPathMatchesTable)
{
    // runConfigs(spec, ...) never builds a Trace: each workload is
    // generated into its replay buffer, and must walk to the bytes the
    // table pins for the trace path.
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "pipedepth-golden-spec";
    std::filesystem::remove_all(dir);

    SweepEngineOptions opt;
    opt.cache_dir = dir.string();
    const MetricDeltas tally;
    SweepEngine engine(opt);
    checkCatalogAgainstGolden(engine, "spec path", GoldenPath::Spec);
    EXPECT_EQ(tally["sweep.cell.cached"], 0u);
    EXPECT_EQ(tally["sweep.trace.generate"], workloadCatalog().size());

    std::filesystem::remove_all(dir);
}

TEST(GoldenHashes, CacheReplayMatchesTable)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "pipedepth-golden-replay";
    std::filesystem::remove_all(dir);

    SweepEngineOptions opt;
    opt.cache_dir = dir.string();

    {
        const MetricDeltas tally;
        SweepEngine cold(opt);
        checkCatalogAgainstGolden(cold, "cold-cache");
        EXPECT_EQ(tally["sweep.cell.cached"], 0u);
    }
    {
        const MetricDeltas tally;
        SweepEngine warm(opt);
        checkCatalogAgainstGolden(warm, "cache-replay");
        // Every cell must have come from the cache: this pass proves
        // the serialized entries round-trip to the golden bytes.
        EXPECT_GT(tally["sweep.cell.schedule"], 0u);
        EXPECT_EQ(tally["sweep.cell.cached"], tally["sweep.cell.schedule"]);
        EXPECT_EQ(tally["sweep.cell.compute"], 0u);
    }

    std::filesystem::remove_all(dir);
}

TEST(EngineDeterminism, CacheKeysAreReproducible)
{
    // Keys are pure functions of content — recomputing them across
    // engines, threads and processes finds the same entries. (A key
    // mismatch would show up as a silent 0% hit rate, so pin the
    // property explicitly.)
    const WorkloadSpec spec = findWorkload("gcc95");
    const SweepOptions opt = fastOptions();
    const PipelineConfig config = opt.configAtDepth(5);

    const CacheKey a = simCellKey(spec, opt.trace_length, config);
    const CacheKey b =
        simCellKey(findWorkload("gcc95"), opt.trace_length,
                   fastOptions().configAtDepth(5));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hex(), b.hex());
}

} // namespace
} // namespace pipedepth
