/**
 * @file
 * SweepEngine: the scheduled, cached substrate under every sweep.
 *
 * Every figure and ablation bench, pipesim, pipesimd,
 * calibration_report and the examples run their grids of
 * cycle-accurate simulation through this engine; only
 * bench_sim_throughput and sim_golden_dump call the walk directly. It
 *
 *  - flattens the full grid into (workload, depth) cells and spreads
 *    groups of cells — not whole workloads — over a work-stealing
 *    parallelMap, so a 55 x 24 grid keeps every core busy to the end
 *    instead of serializing on the slowest workload;
 *  - memoizes every SimResult in a content-addressed on-disk cache
 *    (result_cache.hh) keyed by workload spec, trace length, pipeline
 *    configuration and simulator version (cache_key.hh), so re-runs
 *    of figures and ablations cost milliseconds;
 *  - generates each workload trace at most once per grid, and not at
 *    all when every cell of the workload is cached;
 *  - counts what happened (cells computed vs cache hits, instructions
 *    simulated, wall time). printSummary renders the counts once,
 *    for stderr; machines read the run manifest
 *    (telemetry/manifest.hh), which records every cell. A walk's
 *    wall time is its `sweep.cell.fused` span.
 *
 * Determinism: a cell's result is byte-identical whether computed on
 * 1 thread, N threads, or replayed from cache
 * (tests/sweep/test_engine_determinism.cc pins this).
 */

#ifndef PIPEDEPTH_SWEEP_SWEEP_ENGINE_HH
#define PIPEDEPTH_SWEEP_SWEEP_ENGINE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sweep/depth_sweep.hh"
#include "sweep/result_cache.hh"
#include "sweep/shard_coordinator.hh"

namespace pipedepth
{

class RunManifest;

/** Engine construction knobs. */
struct SweepEngineOptions
{
    unsigned threads = 0; //!< sweep workers; 0 = hardware concurrency

    /**
     * Master cache switch. When true the directory is @p cache_dir,
     * or ResultCache::resolveDefaultDir() if that is empty; an empty
     * resolved directory (e.g. PIPEDEPTH_CACHE_DIR="") disables
     * caching too.
     */
    bool use_cache = true;
    std::string cache_dir;

    /// @name Failure isolation (docs/RELIABILITY.md)
    /// @{
    /**
     * Extra attempts for a cell whose simulation throws. After
     * 1 + max_retries failures the cell is *quarantined*: the sweep
     * completes around it, the hole is a default SimResult
     * (cycles == 0) and a FailureRecord in SweepResult::failures.
     * After a round k with failures, the group waits
     * min(10 << (k-1), 1000) ms once before the next.
     */
    unsigned max_retries = 2;
    /// @}

    /// @name Sharded sweeps (docs/SHARDING.md)
    /// @{
    /**
     * Total worker processes cooperating on this grid; 1 = sharding
     * off. With shards > 1 the engine locks cell groups through a
     * ShardCoordinator in @p shard_dir before walking them, waits out
     * groups other live processes hold, and resolves cross-shard
     * results through the shared result cache. Requires the cache —
     * an engine with shards > 1 and no usable cache warns and runs
     * unsharded — and a @p shard_dir all workers agree on. Group
     * partitioning is derived from the shard count (never from
     * thread count), so every worker forms the same groups.
     */
    unsigned shards = 1;
    unsigned shard_id = 0;  //!< this worker, in [0, shards)
    std::string shard_dir;  //!< shared coordination directory
    /// @}
};

/** What a sweep (or a lifetime of sweeps) did. */
struct SweepCounters
{
    std::uint64_t cells_total = 0;    //!< cells requested
    std::uint64_t cells_computed = 0; //!< simulated this run
    std::uint64_t cache_hits = 0;     //!< served from disk
    std::uint64_t cache_stores = 0;   //!< entries written
    std::uint64_t cache_errors = 0;   //!< corrupt entries recomputed
    std::uint64_t traces_generated = 0;
    std::uint64_t instructions_simulated = 0;
    std::uint64_t cells_retried = 0;     //!< resolved on attempt > 1
    std::uint64_t cells_quarantined = 0; //!< exhausted retries (holes)
    std::uint64_t cells_skipped = 0;     //!< unstarted at interrupt drain
    double wall_seconds = 0.0;

    /** Fraction of cells served from cache (0 when no cells ran). */
    double hitRate() const;

    /** Simulated millions of instructions per wall second. */
    double simMips() const;
};

/**
 * Request-scoped telemetry context for one engine call. Purely
 * observational: tags the `sweep.grid` span (and the manifest's
 * grid event) so a request admitted by the daemon can be followed
 * into the fused engine pass it was batched into. Never part of the
 * cache key — results are byte-identical with or without it.
 */
struct GridTelemetry
{
    std::string batch_id;  //!< caller's correlation id for this pass
    std::string trace_ids; //!< comma-joined request trace ids served
};

/**
 * Schedules grids of simulations over worker threads with result
 * memoization. Engines are cheap to construct; counters accumulate
 * over the engine's lifetime.
 *
 * Thread-compatibility: one engine may be driven from one thread at a
 * time (it parallelizes internally).
 */
class SweepEngine
{
  public:
    explicit SweepEngine(const SweepEngineOptions &options = {});

    /**
     * Run the full workloads x depths grid and assemble one
     * SweepResult per workload (same order as @p specs). This is the
     * parallel, cached equivalent of calling runDepthSweep per spec.
     * @p telemetry optionally tags the pass's `sweep.grid` span with
     * the caller's correlation ids (GridTelemetry); it never affects
     * results or the cache key.
     */
    std::vector<SweepResult> runGrid(const std::vector<WorkloadSpec> &specs,
                                     const SweepOptions &options,
                                     const GridTelemetry *telemetry = nullptr);

    /** One-workload grid. */
    SweepResult runSweep(const WorkloadSpec &spec,
                         const SweepOptions &options);

    /**
     * Simulate catalog workload @p spec at @p trace_length under each
     * configuration; results keep order. Cells take runGrid's plan:
     * keyed by simCellKey, so a cell runGrid stored is a hit here and
     * a warm call generates no trace. Assemble a SweepResult from the
     * runs with assembleSweep (depth_sweep.hh). A @p trace_length of 0
     * is fatal, as in runGrid.
     */
    std::vector<SimResult>
    runConfigs(const WorkloadSpec &spec, std::size_t trace_length,
               const std::vector<PipelineConfig> &configs);

    /**
     * Simulate an explicit trace (e.g. a tape file) under each
     * configuration; results keep order. Cache keys hash the full
     * trace contents (traceCellKey), once per call: each config is
     * appended to one hash of the records (the `sweep.key` span).
     */
    std::vector<SimResult>
    runConfigs(const Trace &trace,
               const std::vector<PipelineConfig> &configs);

    bool cacheEnabled() const { return cache_.enabled(); }
    const std::string &cacheDir() const { return cache_.dir(); }

    /** Non-null when this engine runs as one shard of a sharded
     *  sweep (shards > 1 with a usable cache and shard_dir). */
    const ShardCoordinator *shardCoordinator() const
    {
        return shard_coordinator_.get();
    }

    /**
     * Report every subsequent cell outcome (computed / cached /
     * quarantined, with wall seconds and instructions) to @p manifest,
     * which must outlive the engine calls it observes: a `cell` event
     * as each cell resolves, and the call's cells list entries in plan
     * order when the call ends. Pass nullptr to detach. See
     * telemetry/manifest.hh.
     */
    void attachManifest(RunManifest *manifest) { manifest_ = manifest; }

    /**
     * FailureRecords of the most recent runGrid/runSweep/runConfigs
     * call, in cell order (empty when every cell resolved). runGrid
     * distributes the same records into each SweepResult::failures;
     * this accessor is for runConfigs, which has no SweepResult (pass
     * them to assembleSweep).
     */
    const std::vector<FailureRecord> &lastFailures() const
    {
        return last_failures_;
    }

    /** Snapshot of the lifetime counters. */
    SweepCounters counters() const { return counters_; }

    void resetCounters() { counters_ = SweepCounters{}; }

    /**
     * Render the counters as one table under a `sweep engine [cache
     * DIR]` (or `[cache off]`) header, then the process-wide metrics
     * snapshot. Benches and tools print this to stderr so --csv
     * stdout stays clean.
     */
    void printSummary(std::ostream &os) const;

  private:
    struct CellPlan;
    class CellRecorder;

    /**
     * The one cell pipeline behind runGrid and runConfigs
     * (docs/SWEEP_ENGINE.md): per group of cells, probe → claim →
     * walk (simulateMultiDepth, in attempt rounds) → record. Returns
     * every cell's result in plan order. When @p failures is non-null
     * it receives each plan workload's FailureRecords, in cell order.
     */
    std::vector<SimResult>
    resolveCells(const CellPlan &plan,
                 std::vector<std::vector<FailureRecord>> *failures = nullptr);

    /**
     * Every @p specs workload under every config, through the catalog
     * plan (docs/SWEEP_ENGINE.md): simCellKey addresses, a trace
     * generated only on a miss, the `"grid"` group-key prefix.
     */
    std::vector<SimResult>
    resolveSpecs(const std::vector<WorkloadSpec> &specs,
                 std::size_t trace_length,
                 std::vector<PipelineConfig> configs,
                 std::vector<std::vector<FailureRecord>> *failures = nullptr);

    SweepEngineOptions options_;
    ResultCache cache_;
    std::unique_ptr<ShardCoordinator> shard_coordinator_;
    SweepCounters counters_;
    RunManifest *manifest_ = nullptr;
    std::vector<FailureRecord> last_failures_;
};

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_SWEEP_ENGINE_HH
