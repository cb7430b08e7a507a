/**
 * @file
 * Shared plumbing for the figure-reproduction benches.
 *
 * Every bench binary prints the series behind one figure (or the
 * prose numbers) of the paper. `--csv` switches the output to CSV for
 * plotting; `--trace-length N` and `--threads N` trade accuracy for
 * speed.
 *
 * All sweeps route through the SweepEngine, so repeated bench runs
 * are served from the on-disk result cache (disable with `--no-cache`
 * or PIPEDEPTH_CACHE_DIR=""). The engine's counter summary goes to
 * stderr, keeping stdout byte-identical between cold and warm runs;
 * the result cache announces its directory there once per process.
 *
 * A bench prints nothing around a hole: when an engine call leaves
 * one, exitOnHole prints the engine summary, which names each hole,
 * and exits 3 before the bench writes a byte to stdout. Running the
 * same bench again on the same cache computes only the holes.
 */

#ifndef PIPEDEPTH_BENCH_BENCH_UTIL_HH
#define PIPEDEPTH_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sweep/sweep_engine.hh"

namespace pipedepth
{

/** Command-line options shared by all benches. */
struct BenchOptions
{
    bool csv = false;
    bool no_cache = false;
    std::size_t trace_length = 150000;
    unsigned threads = 0; //!< 0 = hardware concurrency

    /** Structure warm-up: 2/5 of the trace, 60000 at the default
     *  length, so every --trace-length leaves a measured window. */
    std::size_t warmup() const { return trace_length * 2 / 5; }

    TableWriter::Style
    style() const
    {
        return csv ? TableWriter::Style::Csv : TableWriter::Style::Aligned;
    }

    SweepOptions
    sweepOptions() const
    {
        SweepOptions opt;
        opt.trace_length = trace_length;
        opt.warmup_instructions = warmup();
        return opt;
    }

    SweepEngineOptions
    engineOptions() const
    {
        SweepEngineOptions opt;
        opt.threads = threads;
        opt.use_cache = !no_cache;
        return opt;
    }
};

/** Parse the common flags; unknown flags abort with a usage message. */
inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--no-cache") {
            opt.no_cache = true;
        } else if (arg == "--trace-length" && i + 1 < argc) {
            opt.trace_length =
                static_cast<std::size_t>(std::strtoull(argv[++i],
                                                       nullptr, 10));
        } else if (arg == "--threads" && i + 1 < argc) {
            opt.threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--csv] [--no-cache] "
                         "[--trace-length N] [--threads N]\n",
                         argv[0]);
            std::exit(2);
        }
    }
    return opt;
}

/**
 * When the last call of @p engine left a hole, print the engine
 * summary (its `hole:` lines name each one) to stderr and exit 3.
 */
inline void
exitOnHole(const SweepEngine &engine)
{
    if (engine.lastFailures().empty())
        return;
    engine.printSummary(std::cerr);
    std::exit(3);
}

/** Sweep every catalog workload as one engine grid; exitOnHole. */
inline std::vector<SweepResult>
sweepCatalog(const BenchOptions &opt)
{
    SweepEngine engine(opt.engineOptions());
    auto sweeps = engine.runGrid(workloadCatalog(), opt.sweepOptions());
    exitOnHole(engine);
    engine.printSummary(std::cerr);
    return sweeps;
}

/** Sweep @p spec under @p options on an existing engine;
 *  exitOnHole. */
inline SweepResult
sweepWorkload(SweepEngine &engine, const WorkloadSpec &spec,
              const SweepOptions &options)
{
    std::optional<SweepResult> sweep = engine.runSweep(spec, options);
    exitOnHole(engine);
    return std::move(*sweep);
}

/** Sweep one named workload on an existing engine; exitOnHole. */
inline SweepResult
sweepWorkload(SweepEngine &engine, const BenchOptions &opt,
              const std::string &name)
{
    return sweepWorkload(engine, findWorkload(name), opt.sweepOptions());
}

/** Print a banner line above a table (suppressed in CSV mode). */
inline void
banner(const BenchOptions &opt, const char *text)
{
    if (!opt.csv)
        std::printf("\n== %s ==\n", text);
}

} // namespace pipedepth

#endif // PIPEDEPTH_BENCH_BENCH_UTIL_HH
