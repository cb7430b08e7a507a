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
 *    of figures and ablations cost milliseconds: one append-only log
 *    per trace, read once per cell group and appended once per walk;
 *  - generates each workload trace at most once per grid, and not at
 *    all when every cell of the workload is cached, and frees its
 *    replay when the workload's last cell group resolves, so a grid
 *    holds at most one replay per worker thread (the
 *    `sweep.replay.resident` gauge);
 *  - counts what happened in the process-wide metrics registry
 *    (telemetry/metrics.hh): the `sweep.cell.*` outcome counters,
 *    traces generated, instructions simulated and one
 *    `sweep.call.wall_us` sample per engine call. printSummary
 *    renders the registry once, for stderr; machines read the run
 *    manifest (telemetry/manifest.hh), which records every cell. A
 *    walk's wall time is its `sweep.cell.fused` span.
 *
 * Determinism: a cell's result is byte-identical whether computed on
 * 1 thread, N threads, or replayed from cache
 * (tests/sweep/test_engine_determinism.cc pins this).
 */

#ifndef PIPEDEPTH_SWEEP_SWEEP_ENGINE_HH
#define PIPEDEPTH_SWEEP_SWEEP_ENGINE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sweep/depth_sweep.hh"
#include "sweep/result_cache.hh"

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
};

/**
 * Why one grid cell has no result: its walk threw and the cell was
 * quarantined, or an interrupt drain skipped it. The engine lists
 * every hole (SweepEngine::lastFailures, the summary and the run
 * manifest) and assembles no SweepResult around one. A hole is never
 * cached: running the same call again computes it.
 */
struct FailureRecord
{
    std::string workload;
    int depth = 0;
    /** "quarantined: <what()>" or "skipped: interrupt drain". */
    std::string cause;
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
 * memoization. Engines are cheap to construct; what they did is
 * counted in the process-wide metrics registry.
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
     * SweepResult per workload whose cells all resolved, in @p specs
     * order: every spec when lastFailures() is empty. A workload with
     * a hole gets no result; its other cells are still walked and
     * cached, so running the grid again computes only the holes. This
     * is the parallel, cached equivalent of calling runDepthSweep per
     * spec. @p telemetry optionally tags the pass's `sweep.grid` span
     * with the caller's correlation ids (GridTelemetry); it never
     * affects results or the cache key.
     */
    std::vector<SweepResult> runGrid(const std::vector<WorkloadSpec> &specs,
                                     const SweepOptions &options,
                                     const GridTelemetry *telemetry = nullptr);

    /** One-workload grid; empty when a cell is a hole. */
    std::optional<SweepResult> runSweep(const WorkloadSpec &spec,
                                        const SweepOptions &options);

    /**
     * Simulate catalog workload @p spec at @p trace_length under each
     * configuration; results keep order. Cells take runGrid's plan:
     * keyed by simCellKey, so a cell runGrid stored is a hit here and
     * a warm call generates no trace. A hole is a run with cycles 0,
     * named in lastFailures(); assemble a SweepResult from hole-free
     * runs with assembleSweep (depth_sweep.hh). A @p trace_length of 0
     * is fatal, as in runGrid, and so is a config whose
     * warmup_instructions is not below it.
     */
    std::vector<SimResult>
    runConfigs(const WorkloadSpec &spec, std::size_t trace_length,
               const std::vector<PipelineConfig> &configs);

    /**
     * Simulate an explicit trace (e.g. a tape file) under each
     * configuration; results keep order. Cache keys hash the full
     * trace contents (traceCellKey), once per call: each config is
     * appended to one hash of the records (the `sweep.key` span). As
     * in the spec form, a config whose warmup_instructions is not
     * below the trace's record count is fatal.
     */
    std::vector<SimResult>
    runConfigs(const Trace &trace,
               const std::vector<PipelineConfig> &configs);

    bool cacheEnabled() const { return cache_.enabled(); }
    const std::string &cacheDir() const { return cache_.dir(); }

    /**
     * Report every subsequent cell outcome (computed / cached /
     * quarantined, with instructions) to @p manifest,
     * which must outlive the engine calls it observes: a `cell` event
     * as each cell resolves, and the call's cells list entries in plan
     * order when the call ends. Pass nullptr to detach. See
     * telemetry/manifest.hh.
     */
    void attachManifest(RunManifest *manifest) { manifest_ = manifest; }

    /**
     * The holes of the most recent runGrid/runSweep/runConfigs call,
     * in cell order (empty when every cell resolved).
     */
    const std::vector<FailureRecord> &lastFailures() const
    {
        return last_failures_;
    }

    /**
     * Render a `sweep engine [cache DIR]` (or `[cache off]`) header,
     * the process-wide metrics snapshot (every count once), then one
     * `hole: W depth D CAUSE` line per lastFailures() record. Benches
     * and tools print this to stderr so --csv stdout stays clean.
     */
    void printSummary(std::ostream &os) const;

  private:
    struct CellPlan;
    class CellRecorder;

    /**
     * The one cell pipeline behind runGrid and runConfigs
     * (docs/SWEEP_ENGINE.md): per group of cells, probe (one read of
     * the workload's log) → walk (one simulateMultiDepth call, one
     * append of its frames) → record. Returns
     * every cell's result in plan order, and lists each hole in
     * lastFailures().
     */
    std::vector<SimResult> resolveCells(const CellPlan &plan);

    /**
     * Every @p specs workload under every config, through the catalog
     * plan (docs/SWEEP_ENGINE.md): simCellKey addresses in one log per
     * spec, a trace generated only on a miss.
     */
    std::vector<SimResult>
    resolveSpecs(const std::vector<WorkloadSpec> &specs,
                 std::size_t trace_length,
                 std::vector<PipelineConfig> configs);

    SweepEngineOptions options_;
    ResultCache cache_;
    RunManifest *manifest_ = nullptr;
    std::vector<FailureRecord> last_failures_;
};

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_SWEEP_ENGINE_HH
