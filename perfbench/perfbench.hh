/**
 * @file
 * perfbench: shared pieces of the benchmark harness.
 *
 * Each workload (catalog_cold.cc, golden_cells.cc) drives one
 * shipped entry point for a fixed number of seconds, checks
 * every output, and fills a Report. An untraced run reports the
 * end-to-end metrics; a traced run replays the entry point's steps by
 * calling each layer's public function from here, timed with thread
 * CPU clocks, and reports the per-layer metrics. Nothing inside the
 * library is instrumented for this.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sweep/depth_sweep.hh"
#include "uarch/sim_result.hh"

namespace perfbench
{

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    std::string root;     //!< checkout root (golden table, digests)
    std::string work_dir; //!< private scratch: caches, sockets
    std::string daemon;   //!< pipesimd binary (server layer)
    unsigned cores = 1;   //!< online CPUs; engine and daemon threads

    /// @name Self-test knobs (selftest.py)
    /// @{
    bool tiny = false;        //!< sizes that run in about a second
    std::string golden_table; //!< golden table path override
    /// @}
};

/** One row of tests/sweep/golden_sim_hashes.inc. */
struct GoldenRow
{
    std::string workload;
    int depth = 0;
    std::uint64_t hash = 0;   //!< FNV-1a of the serialized result
    std::uint64_t ledger = 0; //!< ledgerHash
};

std::vector<GoldenRow> loadGoldenTable(const std::string &path);

/** The golden table a run checks against (Options::golden_table or
 *  the repository's own). */
std::string goldenTablePath(const Options &opt);

/** One named metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; //!< "# " lines before the JSON line

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record an output mismatch: counts as failed, fails the run. */
    void mismatch(const std::string &what)
    {
        correct = false;
        ++failed;
        if (notes.size() < 40)
            notes.push_back("MISMATCH " + what);
    }
};

/// @name Clocks
/// @{
double wallSeconds();       //!< steady clock
double threadCpuSeconds();  //!< calling thread's CPU time
double processCpuSeconds(); //!< whole process, all threads
/// @}

/**
 * The host's speed, read from a fixed probe: one sum over a 32 MiB
 * buffer, which lives in the shared last-level cache. The host this
 * benchmark runs on is shared, and its speed drifts by tens of percent
 * over minutes; the program's timings drift with it, set-up included,
 * and follow this probe more closely than a pure arithmetic loop.
 * Timings are therefore reported scaled to a nominal host, one on
 * which the probe takes kNominalProbeS, using the probe read just
 * before and just after the work they time.
 */
class HostSpeed
{
  public:
    static constexpr double kNominalProbeS = 4e-3;
    /// Resident for the whole run: subtract it from peak RSS.
    static constexpr double kProbeMb = 32.0;

    HostSpeed();

    /** Probe again; return the factor that scales a time measured
     *  since the previous probe to the nominal host. */
    double rescale();

    /** Median probe seconds over the run (for the run's notes). */
    double medianProbe() const;

  private:
    double probe() const;

    std::vector<std::uint64_t> buffer_;
    double last_;
    std::vector<double> probes_;
};

/** Peak resident set of this process in MB (VmHWM). */
double selfPeakRssMb();

/** Median of @p v (0 for empty input). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in [0, 100] (0 for empty input). */
double percentile(std::vector<double> v, double p);

/** FNV-1a over the canonical serialized result: the golden-table hash. */
std::uint64_t resultHash(const pipedepth::SimResult &r);

/** FNV-1a step over a 64-bit value (order digests). */
std::uint64_t mixHash(std::uint64_t h, std::uint64_t v);

/** A permutation of [0, n) fixed by @p seed. */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed);

/** Create (or empty and recreate) directory @p path. */
void freshDir(const std::string &path);

/** Remove @p path and everything under it, if present. */
void removeTree(const std::string &path);

/** Set-ups timed before each pass. One costs well under a millisecond,
 *  and the host's speed moves over seconds, so samples are spread
 *  over the whole run and setup_s is their median. */
inline constexpr int kSetupsPerPass = 21;

/**
 * Append the thread-CPU seconds of @p times in-process set-ups to
 * @p samples. Each is the program's set-up a pass pays before its
 * first call: a copy of the workload catalog and a SweepEngine on an
 * existing, empty cache directory, which it opens and scans.
 */
void sampleSetup(const Options &opt, int times, std::vector<double> &samples);

/**
 * Per-layer CPU seconds and counts of a traced replay. Thread-safe:
 * replay workers add their own measurements under the lock.
 */
struct LayerTotals
{
    double generate_s = 0, prepare_s = 0, annotate_s = 0, walk_s = 0;
    double key_s = 0, load_s = 0, store_s = 0, extract_s = 0, fit_s = 0;
    double warm_load_s = 0; //!< probes of stored keys, beyond the entry point
    double warm_pass_s = 0; //!< wall of the pass repeated on its filled cache
    std::uint64_t walk_instructions = 0, walk_calls = 0, walk_lanes = 0;
    std::uint64_t loads = 0, hits = 0, stores = 0;

    std::mutex mutex;

    void add(double LayerTotals::*field, double seconds)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        this->*field += seconds;
    }
    void count(std::uint64_t LayerTotals::*field, std::uint64_t n)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        this->*field += n;
    }
    /** CPU seconds of the layer calls the entry point itself makes
     *  (not the cubic fit, not the warm probes). */
    double entryPointSum() const
    {
        return generate_s + prepare_s + annotate_s + walk_s + key_s +
               load_s + store_s + extract_s;
    }
};

/** Thread-CPU stopwatch that adds its span to one LayerTotals field. */
class LayerTimer
{
  public:
    LayerTimer(LayerTotals &totals, double LayerTotals::*field)
        : totals_(totals), field_(field), start_(threadCpuSeconds())
    {
    }
    ~LayerTimer() { totals_.add(field_, threadCpuSeconds() - start_); }

    LayerTimer(const LayerTimer &) = delete;
    LayerTimer &operator=(const LayerTimer &) = delete;

  private:
    LayerTotals &totals_;
    double LayerTotals::*field_;
    double start_;
};

/** Server-layer figures (catalog_cold's traced run; zero elsewhere). */
struct ServerLayers
{
    double parse_us = 0, queue_p99_ms = 0, batch_p50_ms = 0;
    double engine_p50_ms = 0, serialize_p50_ms = 0;
    double unattributed_p50_ms = 0, requests_per_pass = 0;
};

/**
 * Serve @p expected's grid from the built pipesimd (fresh cache), one
 * `sweep` request per workload, check every answer against
 * @p expected, and return the daemon's phase split.
 */
ServerLayers measureServerLayers(const Options &opt,
                                 const pipedepth::SweepOptions &so,
                                 const std::vector<pipedepth::SweepResult>
                                     &expected,
                                 Report &report);

/**
 * Append every per-layer metric, in the fixed order main.cc checks.
 * @p engine_cpu_s and @p wall_s are the untraced run's engine CPU and
 * wall seconds; the residual is engine CPU minus the CPU seconds of
 * the layer calls the entry point makes.
 */
void reportLayers(Report &report, const Options &opt,
                  const LayerTotals &layers, double engine_cpu_s,
                  double untraced_wall_s, double traced_wall_s,
                  const ServerLayers &server);

Report runCatalogCold(const Options &opt);
Report runGoldenCells(const Options &opt);

/** Print catalog_cold.digest for the code as built. */
int printCatalogDigest(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
