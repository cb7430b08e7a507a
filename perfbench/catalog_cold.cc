/**
 * @file
 * catalog_cold: the paper's experiment through SweepEngine::runGrid.
 *
 * Each pass is one runGrid over all 55 catalog workloads x depths
 * 2..25 (trace 150000, warmup 60000) on a fresh private result cache,
 * so every cell is probed, simulated in the 24-lane fused walk and
 * stored. The seed permutes the workload order of each call. Every
 * cell is checked against the per-cell digest recorded in
 * catalog_cold.digest, and the catalog's mean BIPS^3/W optimum is
 * checked against the value recorded there. The traced run repeats
 * its pass on the filled cache, the warm path, and checks it as well.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "calib/extract.hh"
#include "common/parallel.hh"
#include "perfbench.hh"
#include "sweep/cache_key.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep_engine.hh"
#include "uarch/multi_depth_walk.hh"
#include "workloads/catalog.hh"

using namespace pipedepth;

namespace perfbench
{
namespace
{

/** The paper's Fig. 6 centre: the catalog's optimum is near 8 stages. */
constexpr double kPaperOptimum = 8.0;

SweepOptions
catalogOptions(bool tiny)
{
    SweepOptions so;
    so.trace_length = tiny ? 12000 : 150000;
    so.warmup_instructions = tiny ? 4000 : 60000;
    return so;
}

std::vector<WorkloadSpec>
catalogSpecs(bool tiny)
{
    const std::vector<WorkloadSpec> &all = workloadCatalog();
    if (!tiny)
        return all;
    std::vector<WorkloadSpec> few;
    for (std::size_t i = 0; i < all.size(); i += 14)
        few.push_back(all[i]);
    return few;
}

struct Digest
{
    double opt_mean = 0.0;
    std::map<std::pair<std::string, int>, std::uint64_t> cells;
};

Digest
loadDigest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    Digest d;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        if (name == "opt_mean") {
            fields >> d.opt_mean;
            continue;
        }
        int depth = 0;
        std::string hex;
        fields >> depth >> hex;
        d.cells[{name, depth}] = std::stoull(hex, nullptr, 16);
    }
    return d;
}

/** Mean over workloads of the gated BIPS^3/W cubic-fit optimum,
 *  summed in name order so the call order cannot move the last bit. */
double
meanOptimum(const std::vector<SweepResult> &sweeps)
{
    std::map<std::string, double> optima;
    for (const SweepResult &s : sweeps) {
        bool interior = false;
        optima[s.spec.name] = s.cubicFitOptimum(3.0, true, &interior);
    }
    double sum = 0.0;
    for (const auto &[name, optimum] : optima)
        sum += optimum;
    return sweeps.empty() ? 0.0 : sum / static_cast<double>(sweeps.size());
}

/** One timed runGrid pass and what it produced. */
struct Pass
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t instructions = 0;
    std::vector<SweepResult> sweeps;
    /// With a warm repeat: the same runGrid again on the filled cache.
    double warm_wall_s = 0.0;
    std::vector<SweepResult> warm_sweeps;
};

Pass
runPass(const Options &opt, const std::vector<WorkloadSpec> &specs,
        const SweepOptions &so, std::uint64_t order_seed,
        bool warm_repeat = false)
{
    const std::string cache = opt.work_dir + "/catalog-cache";
    freshDir(cache);
    SweepEngineOptions eo;
    eo.threads = opt.cores;
    eo.cache_dir = cache;
    SweepEngine engine(eo);

    std::vector<WorkloadSpec> ordered;
    for (std::size_t i : seededOrder(specs.size(), order_seed))
        ordered.push_back(specs[i]);

    Pass pass;
    const double cpu0 = processCpuSeconds();
    const double t0 = wallSeconds();
    pass.sweeps = engine.runGrid(ordered, so);
    pass.wall_s = wallSeconds() - t0;
    pass.cpu_s = processCpuSeconds() - cpu0;
    for (const SweepResult &s : pass.sweeps) {
        for (const SimResult &r : s.runs)
            pass.instructions += r.instructions;
    }
    if (warm_repeat) {
        const double t1 = wallSeconds();
        pass.warm_sweeps = engine.runGrid(ordered, so);
        pass.warm_wall_s = wallSeconds() - t1;
    }
    removeTree(cache);
    return pass;
}

/** Check every cell of @p sweeps; returns the order-independent digest. */
std::uint64_t
verifySweeps(const std::vector<SweepResult> &sweeps, const Digest *digest,
             Report &report)
{
    std::uint64_t outputs = 14695981039346656037ull;
    std::map<std::string, const SweepResult *> by_name;
    for (const SweepResult &s : sweeps)
        by_name[s.spec.name] = &s;
    for (const auto &[name, sweep] : by_name) {
        for (const SimResult &r : sweep->runs) {
            ++report.attempted;
            const std::uint64_t h = resultHash(r);
            outputs = mixHash(outputs, h);
            if (r.cycles == 0) {
                ++report.failed; // quarantined hole
                continue;
            }
            if (!digest)
                continue;
            const auto it = digest->cells.find({name, r.depth});
            if (it == digest->cells.end() || it->second != h)
                report.mismatch("catalog_cold " + name + " depth " +
                                std::to_string(r.depth));
        }
    }
    return outputs;
}

/** Traced replay of one pass's layer calls, at the engine's width. */
void
replayLayers(LayerTotals &layers, const Options &opt, const std::vector<WorkloadSpec> &specs,
             const SweepOptions &so, const std::vector<SweepResult> &sweeps)
{
    const std::string dir = opt.work_dir + "/replay-cache";
    freshDir(dir);
    const ResultCache cache(dir);
    std::vector<PipelineConfig> configs;
    for (int p = so.min_depth; p <= so.max_depth; ++p)
        configs.push_back(so.configAtDepth(p));

    // One group per workload, 24 lanes: the engine's grouping for a
    // grid wide enough to fill the pool.
    parallelMap(
        specs,
        [&](const WorkloadSpec &spec) {
            ReplayBuffer replay;
            {
                Trace trace;
                {
                    LayerTimer t(layers, &LayerTotals::generate_s);
                    trace = spec.makeTrace(so.trace_length);
                }
                LayerTimer t(layers, &LayerTotals::prepare_s);
                replay = prepareReplay(trace);
            }
            ReplayAnnotations annotations;
            {
                LayerTimer t(layers, &LayerTotals::annotate_s);
                annotations = annotateReplay(replay, configs.front());
            }
            std::vector<CacheKey> keys;
            {
                LayerTimer t(layers, &LayerTotals::key_s);
                for (const PipelineConfig &c : configs)
                    keys.push_back(simCellKey(spec, so.trace_length, c));
            }
            std::uint64_t hits = 0;
            {
                LayerTimer t(layers, &LayerTotals::load_s);
                for (const CacheKey &k : keys)
                    hits += cache.load(k).has_value();
            }
            layers.count(&LayerTotals::loads, keys.size());
            layers.count(&LayerTotals::hits, hits);
            std::vector<SimResult> results;
            {
                LayerTimer t(layers, &LayerTotals::walk_s);
                results = simulateMultiDepth(replay, annotations, configs);
            }
            std::uint64_t instructions = 0;
            for (const SimResult &r : results)
                instructions += r.instructions;
            layers.count(&LayerTotals::walk_instructions, instructions);
            layers.count(&LayerTotals::walk_calls, 1);
            layers.count(&LayerTotals::walk_lanes, configs.size());
            {
                LayerTimer t(layers, &LayerTotals::store_s);
                for (std::size_t i = 0; i < keys.size(); ++i)
                    cache.store(keys[i], results[i]);
            }
            layers.count(&LayerTotals::stores, keys.size());
            // Warm probe: every key again, now stored, as a warm
            // runGrid probes it.
            hits = 0;
            {
                LayerTimer t(layers, &LayerTotals::warm_load_s);
                for (const CacheKey &k : keys)
                    hits += cache.load(k).has_value();
            }
            layers.count(&LayerTotals::loads, keys.size());
            layers.count(&LayerTotals::hits, hits);
            LayerTimer t(layers, &LayerTotals::extract_s);
            extractMachineParams(results[static_cast<std::size_t>(
                so.reference_depth - so.min_depth)]);
            return 0;
        },
        opt.cores, 1);
    removeTree(dir);

    for (const SweepResult &s : sweeps) {
        LayerTimer t(layers, &LayerTotals::fit_s);
        bool interior = false;
        s.cubicFitOptimum(3.0, true, &interior);
    }
}

} // namespace

Report
runCatalogCold(const Options &opt)
{
    Report report;
    const SweepOptions so = catalogOptions(opt.tiny);
    const std::vector<WorkloadSpec> specs = catalogSpecs(opt.tiny);
    Digest digest;
    if (!opt.tiny)
        digest = loadDigest(opt.root + "/perfbench/catalog_cold.digest");

    if (opt.trace) {
        const Pass pass = runPass(opt, specs, so, opt.seed, true);
        verifySweeps(pass.sweeps, opt.tiny ? nullptr : &digest, report);
        verifySweeps(pass.warm_sweeps, opt.tiny ? nullptr : &digest, report);
        const double t0 = wallSeconds();
        LayerTotals layers;
        layers.warm_pass_s = pass.warm_wall_s;
        replayLayers(layers, opt, specs, so, pass.sweeps);
        const double traced_wall = wallSeconds() - t0;
        const ServerLayers server =
            measureServerLayers(opt, so, pass.sweeps, report);
        reportLayers(report, opt, layers, pass.cpu_s, pass.wall_s,
                     traced_wall, server);
        return report;
    }

    std::vector<double> setups, walls, mips; // scaled to the nominal host
    std::vector<double> raw_walls, raw_mips;
    std::uint64_t outputs = 0, order = 14695981039346656037ull;
    double opt_mean = 0.0;
    HostSpeed host;
    const double start = wallSeconds();
    for (std::uint64_t k = 0; walls.empty() ||
                              wallSeconds() - start < opt.seconds;
         ++k) {
        const std::uint64_t order_seed = opt.seed * 1000003ull + k;
        std::vector<double> pass_setups;
        sampleSetup(opt, kSetupsPerPass, pass_setups);
        const Pass pass = runPass(opt, specs, so, order_seed);
        const double scale = host.rescale();
        for (const SweepResult &s : pass.sweeps)
            order = mixHash(order, std::hash<std::string>{}(s.spec.name));
        for (double t : pass_setups)
            setups.push_back(t * scale);
        raw_walls.push_back(pass.wall_s);
        raw_mips.push_back(static_cast<double>(pass.instructions) /
                           pass.wall_s / 1e6);
        walls.push_back(raw_walls.back() * scale);
        mips.push_back(raw_mips.back() / scale);
        outputs = verifySweeps(pass.sweeps, opt.tiny ? nullptr : &digest,
                               report);
        if (k == 0)
            opt_mean = meanOptimum(pass.sweeps);
    }

    const double opt_err = std::fabs(opt_mean - kPaperOptimum);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "catalog_cold: %zu passes, mean optimum %.4f, "
                  "opt_err_stages %.4f",
                  walls.size(), opt_mean, opt_err);
    report.notes.push_back(line);
    if (!opt.tiny && opt_mean != digest.opt_mean) {
        report.mismatch("catalog_cold mean optimum " +
                        std::to_string(opt_mean) + " != recorded " +
                        std::to_string(digest.opt_mean));
    }
    std::snprintf(line, sizeof(line),
                  "as measured: sim_mips %.4f call_p50_ms %.3f; host probe "
                  "%.4f ms (nominal %.4f)",
                  median(raw_mips), 1e3 * median(raw_walls),
                  1e3 * host.medianProbe(), 1e3 * HostSpeed::kNominalProbeS);
    report.notes.push_back(line);
    std::snprintf(line, sizeof(line), "order %016llx outputs %016llx",
                  static_cast<unsigned long long>(order),
                  static_cast<unsigned long long>(outputs));
    report.notes.push_back(line);

    report.set("setup_s", median(setups), "s");
    report.set("sim_mips", median(mips), "Minstr/s");
    report.set("call_p50_ms", 1e3 * median(walls), "ms");
    report.set("call_p95_ms", 1e3 * percentile(walls, 95.0), "ms");
    report.set("ok_ratio",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "ratio");
    report.set("peak_rss_mb", selfPeakRssMb() - HostSpeed::kProbeMb, "MB");
    return report;
}

/** `perfbench digest`: print catalog_cold.digest for the current code. */
int
printCatalogDigest(const Options &opt)
{
    const SweepOptions so = catalogOptions(false);
    const Pass pass = runPass(opt, catalogSpecs(false), so, 0);
    std::printf("# catalog_cold per-cell result digests: FNV-1a of the\n"
                "# serialized SimResult, 55 workloads x depths %d..%d,\n"
                "# trace %zu, warmup %zu. Regenerate with\n"
                "#   perfbench digest --root . --work-dir DIR\n"
                "# only for an intentional simulator semantics change.\n",
                so.min_depth, so.max_depth, so.trace_length,
                so.warmup_instructions);
    std::printf("opt_mean %.17g\n", meanOptimum(pass.sweeps));
    for (const SweepResult &s : pass.sweeps) {
        for (const SimResult &r : s.runs) {
            std::printf("%s %d %016llx\n", s.spec.name.c_str(), r.depth,
                        static_cast<unsigned long long>(resultHash(r)));
        }
    }
    return 0;
}

} // namespace perfbench
