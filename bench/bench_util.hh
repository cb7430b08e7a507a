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
 * A sweep whose reference cell is a hole is uncalibrated: metric(),
 * theoryModel() and theoryCurve() would answer from default
 * parameters. Benches print no such number; they warn instead
 * (calibratedOrWarn) or skip the sweep (averagedSweeps).
 */

#ifndef PIPEDEPTH_BENCH_BENCH_UTIL_HH
#define PIPEDEPTH_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
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

/** Sweep every catalog workload as one engine grid. */
inline std::vector<SweepResult>
sweepCatalog(const BenchOptions &opt)
{
    SweepEngine engine(opt.engineOptions());
    auto sweeps = engine.runGrid(workloadCatalog(), opt.sweepOptions());
    engine.printSummary(std::cerr);
    return sweeps;
}

/**
 * The sweeps of @p sweeps a catalog aggregate can average. A sweep
 * whose reference cell is a hole is uncalibrated (default
 * MachineParams, no leakage), and one with fewer than 4 live depths
 * has no cubic-fit optimum (0); either would skew a mean without a
 * word. Each skipped sweep is named on stderr, prefixed by @p bench,
 * then the skips are counted.
 */
inline std::vector<const SweepResult *>
averagedSweeps(const std::vector<SweepResult> &sweeps, const char *bench)
{
    std::vector<const SweepResult *> kept;
    for (const auto &s : sweeps) {
        bool interior = false;
        const char *why =
            !s.calibrated()
                ? "reference cell quarantined"
            : s.cubicFitOptimum(3.0, true, &interior) == 0.0
                ? "no cubic-fit optimum"
                : nullptr;
        if (!why) {
            kept.push_back(&s);
            continue;
        }
        std::fprintf(stderr, "%s: skipping %s (%s, %zu hole(s))\n", bench,
                     s.spec.name.c_str(), why, s.failures.size());
    }
    if (kept.size() < sweeps.size())
        std::fprintf(stderr, "%s: skipped %zu of %zu workloads\n", bench,
                     sweeps.size() - kept.size(), sweeps.size());
    return kept;
}

/**
 * Whether @p sweep is calibrated (SweepResult::calibrated). When it
 * is not, warn on stderr, prefixed by @p bench and naming the
 * workload and the reference depth; the caller then prints no number
 * from metric(), theoryModel() or theoryCurve().
 */
inline bool
calibratedOrWarn(const SweepResult &sweep, const char *bench)
{
    if (sweep.calibrated())
        return true;
    std::fprintf(stderr,
                 "%s: reference depth %d cell quarantined for %s; its "
                 "uncalibrated rows are not printed\n",
                 bench, sweep.options.reference_depth,
                 sweep.spec.name.c_str());
    return false;
}

/** Sweep one named workload on an existing engine. */
inline SweepResult
sweepWorkload(SweepEngine &engine, const BenchOptions &opt,
              const std::string &name)
{
    return engine.runSweep(findWorkload(name), opt.sweepOptions());
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
