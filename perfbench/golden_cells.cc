/**
 * @file
 * golden_cells: the 220 golden (workload, depth) cells, one
 * single-config SweepEngine::runConfigs call each, on a freshly
 * generated trace (trace 30000, warmup 10000) — what
 * `pipesim --workload W --depth N` does. A pass runs every cell once
 * on a fresh private cache, in an order the seed permutes; nothing
 * amortizes. Both FNV hashes of every result are checked against
 * tests/sweep/golden_sim_hashes.inc, which is read, never written.
 * The traced run repeats its pass on the filled cache, the warm path,
 * and checks it as well.
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "perfbench.hh"
#include "sweep/cache_key.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep_engine.hh"
#include "uarch/simulator.hh"
#include "workloads/catalog.hh"

using namespace pipedepth;

namespace perfbench
{

std::vector<GoldenRow>
loadGoldenTable(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<GoldenRow> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("{\"", 0) != 0)
            continue;
        char name[64] = {};
        int depth = 0;
        unsigned long long hash = 0, ledger = 0;
        if (std::sscanf(line.c_str(), "{\"%63[^\"]\", %d, 0x%llxull, 0x%llxull",
                        name, &depth, &hash, &ledger) != 4)
            throw std::runtime_error("malformed golden row: " + line);
        rows.push_back({name, depth, hash, ledger});
    }
    if (rows.empty())
        throw std::runtime_error("no golden rows in " + path);
    return rows;
}

std::string
goldenTablePath(const Options &opt)
{
    return opt.golden_table.empty()
               ? opt.root + "/tests/sweep/golden_sim_hashes.inc"
               : opt.golden_table;
}

namespace
{

constexpr std::size_t kGoldenLength = 30000;
constexpr std::size_t kGoldenWarmup = 10000;

SweepOptions
goldenOptions()
{
    SweepOptions so;
    so.trace_length = kGoldenLength;
    so.warmup_instructions = kGoldenWarmup;
    return so;
}

/** One pass: every row once, as its own runConfigs call. */
struct Pass
{
    std::vector<double> call_s;    //!< per call, trace generation included
    std::vector<double> call_mips; //!< per call: Minstr / call_s
    double wall_s = 0.0, cpu_s = 0.0; //!< the whole pass
    double warm_s = 0.0; //!< with a warm repeat: the pass again, cache filled
    std::uint64_t order = 14695981039346656037ull;
    std::uint64_t outputs = 14695981039346656037ull;
};

/** Check one call's answer against its golden row. */
void
verifyCall(const GoldenRow &row, const std::vector<SimResult> &runs,
           const char *what, Report &report)
{
    ++report.attempted;
    if (runs.size() != 1 || runs.front().cycles == 0) {
        ++report.failed; // quarantined hole
        return;
    }
    if (resultHash(runs.front()) != row.hash ||
        ledgerHash(runs.front()) != row.ledger)
        report.mismatch(std::string(what) + " " + row.workload + " depth " +
                        std::to_string(row.depth));
}

Pass
runPass(const Options &opt, const std::vector<GoldenRow> &rows,
        std::uint64_t order_seed, Report &report, bool warm_repeat = false)
{
    const SweepOptions so = goldenOptions();
    const std::string cache = opt.work_dir + "/golden-cache";
    freshDir(cache);
    SweepEngineOptions eo;
    eo.threads = opt.cores;
    eo.cache_dir = cache;
    SweepEngine engine(eo);

    Pass pass;
    std::vector<std::uint64_t> hashes(rows.size());
    const std::vector<std::size_t> order = seededOrder(rows.size(), order_seed);
    const double wall0 = wallSeconds();
    const double cpu0 = processCpuSeconds();
    for (std::size_t i : order) {
        const GoldenRow &row = rows[i];
        const WorkloadSpec &spec = findWorkload(row.workload);
        const std::vector<PipelineConfig> configs{
            so.configAtDepth(row.depth)};

        const double t0 = wallSeconds();
        const Trace trace = spec.makeTrace(kGoldenLength);
        const std::vector<SimResult> runs = engine.runConfigs(trace, configs);
        pass.call_s.push_back(wallSeconds() - t0);

        pass.order = mixHash(pass.order, i);
        verifyCall(row, runs, "golden_cells", report);
        if (runs.size() == 1 && runs.front().cycles != 0) {
            pass.call_mips.push_back(
                static_cast<double>(runs.front().instructions) /
                pass.call_s.back() / 1e6);
            hashes[i] = resultHash(runs.front());
        }
    }
    pass.cpu_s = processCpuSeconds() - cpu0;
    pass.wall_s = wallSeconds() - wall0;
    for (std::uint64_t h : hashes)
        pass.outputs = mixHash(pass.outputs, h);

    if (warm_repeat) {
        std::vector<std::vector<SimResult>> warm(rows.size());
        const double t0 = wallSeconds();
        for (std::size_t i : order) {
            const Trace trace =
                findWorkload(rows[i].workload).makeTrace(kGoldenLength);
            warm[i] = engine.runConfigs(
                trace, {so.configAtDepth(rows[i].depth)});
        }
        pass.warm_s = wallSeconds() - t0;
        for (std::size_t i = 0; i < rows.size(); ++i)
            verifyCall(rows[i], warm[i], "golden_cells warm", report);
    }
    removeTree(cache);
    return pass;
}

/** Traced replay of one pass's layer calls (one lane, one thread). */
void
replayLayers(LayerTotals &layers, const Options &opt, const std::vector<GoldenRow> &rows)
{
    const SweepOptions so = goldenOptions();
    const std::string dir = opt.work_dir + "/replay-cache";
    freshDir(dir);
    const ResultCache cache(dir);
    for (std::size_t i : seededOrder(rows.size(), opt.seed)) {
        const GoldenRow &row = rows[i];
        const WorkloadSpec &spec = findWorkload(row.workload);
        const PipelineConfig config = so.configAtDepth(row.depth);
        Trace trace;
        {
            LayerTimer t(layers, &LayerTotals::generate_s);
            trace = spec.makeTrace(kGoldenLength);
        }
        CacheKey key;
        {
            LayerTimer t(layers, &LayerTotals::key_s);
            key = traceCellKey(trace, config);
        }
        bool hit = false;
        {
            LayerTimer t(layers, &LayerTotals::load_s);
            hit = cache.load(key).has_value();
        }
        layers.count(&LayerTotals::loads, 1);
        layers.count(&LayerTotals::hits, hit);
        ReplayBuffer replay;
        {
            LayerTimer t(layers, &LayerTotals::prepare_s);
            replay = prepareReplay(trace);
        }
        ReplayAnnotations annotations;
        {
            LayerTimer t(layers, &LayerTotals::annotate_s);
            annotations = annotateReplay(replay, config);
        }
        SimResult result;
        {
            LayerTimer t(layers, &LayerTotals::walk_s);
            result = simulate(replay, annotations, config);
        }
        layers.count(&LayerTotals::walk_instructions, result.instructions);
        layers.count(&LayerTotals::walk_calls, 1);
        layers.count(&LayerTotals::walk_lanes, 1);
        {
            LayerTimer t(layers, &LayerTotals::store_s);
            cache.store(key, result);
        }
        layers.count(&LayerTotals::stores, 1);
        {
            LayerTimer t(layers, &LayerTotals::warm_load_s);
            hit = cache.load(key).has_value();
        }
        layers.count(&LayerTotals::loads, 1);
        layers.count(&LayerTotals::hits, hit);
    }
    removeTree(dir);
}

} // namespace

Report
runGoldenCells(const Options &opt)
{
    Report report;
    std::vector<GoldenRow> rows = loadGoldenTable(goldenTablePath(opt));
    if (opt.tiny && rows.size() > 12)
        rows.resize(12);

    if (opt.trace) {
        const Pass pass = runPass(opt, rows, opt.seed, report, true);
        const double t1 = wallSeconds();
        LayerTotals layers;
        layers.warm_pass_s = pass.warm_s;
        replayLayers(layers, opt, rows);
        reportLayers(report, opt, layers, pass.cpu_s, pass.wall_s,
                     wallSeconds() - t1, ServerLayers{});
        return report;
    }

    // Scaled to the nominal host. A pass's p95 has 11 calls beyond it;
    // the median over passes keeps one slow stretch of the host from
    // setting the run's tail.
    std::vector<double> setups, calls, pass_p95, mips;
    std::vector<double> raw_calls, raw_mips;
    std::uint64_t order = 0, outputs = 0;
    std::size_t passes = 0;
    HostSpeed host;
    const double start = wallSeconds();
    for (std::uint64_t k = 0; passes == 0 ||
                              wallSeconds() - start < opt.seconds;
         ++k, ++passes) {
        std::vector<double> pass_setups;
        sampleSetup(opt, kSetupsPerPass, pass_setups);
        const Pass pass = runPass(opt, rows, opt.seed * 1000003ull + k,
                                  report);
        const double scale = host.rescale();
        for (double t : pass_setups)
            setups.push_back(t * scale);
        std::vector<double> pass_calls;
        for (double t : pass.call_s)
            pass_calls.push_back(t * scale);
        pass_p95.push_back(percentile(pass_calls, 95.0));
        calls.insert(calls.end(), pass_calls.begin(), pass_calls.end());
        for (double m : pass.call_mips)
            mips.push_back(m / scale);
        raw_calls.insert(raw_calls.end(), pass.call_s.begin(),
                         pass.call_s.end());
        raw_mips.insert(raw_mips.end(), pass.call_mips.begin(),
                        pass.call_mips.end());
        if (k == 0)
            order = pass.order;
        outputs = pass.outputs;
    }

    char line[160];
    std::snprintf(line, sizeof(line),
                  "golden_cells: %zu passes, %zu calls, %zu golden rows "
                  "verified per pass",
                  passes, calls.size(), rows.size());
    report.notes.push_back(line);
    std::snprintf(line, sizeof(line),
                  "as measured: sim_mips %.4f call_p50_ms %.3f; host probe "
                  "%.4f ms (nominal %.4f)",
                  median(raw_mips), 1e3 * median(raw_calls),
                  1e3 * host.medianProbe(), 1e3 * HostSpeed::kNominalProbeS);
    report.notes.push_back(line);
    std::snprintf(line, sizeof(line), "order %016llx outputs %016llx",
                  static_cast<unsigned long long>(order),
                  static_cast<unsigned long long>(outputs));
    report.notes.push_back(line);

    report.set("setup_s", median(setups), "s");
    report.set("sim_mips", median(mips), "Minstr/s");
    report.set("call_p50_ms", 1e3 * median(calls), "ms");
    report.set("call_p95_ms", 1e3 * median(pass_p95), "ms");
    report.set("ok_ratio",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "ratio");
    report.set("peak_rss_mb", selfPeakRssMb() - HostSpeed::kProbeMb, "MB");
    return report;
}

} // namespace perfbench
