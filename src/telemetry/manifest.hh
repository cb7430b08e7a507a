/**
 * @file
 * Structured run manifests: the provenance record of a run.
 *
 * Every SweepEngine-driven invocation (pipesim, calibration_report,
 * benches that opt in) can emit
 *
 *  - a JSONL *event stream* while it runs — one self-contained JSON
 *    object per line (run_start, one `cell` event per grid cell as it
 *    resolves, run_end), flushed line-by-line so even an aborted run
 *    leaves a usable record; and
 *  - a final `manifest.json` — schema-versioned, capturing the tool
 *    and argv, the git revision of the build, free-form metadata
 *    (cache directory, config hash, simulator version tag), the
 *    outcome of every cell (computed / cached / failed, with wall
 *    seconds and instructions), the full metrics-registry snapshot,
 *    and per-name span rollups.
 *
 * The manifest is the reproduction contract: re-running the tool
 * named in `tool` with `argv` at revision `git` must reproduce the
 * figure (results are deterministic; only timestamps and durations
 * differ — tests/telemetry/test_manifest.cc pins exactly that).
 * docs/OBSERVABILITY.md documents the schema; bump kSchemaVersion on
 * any incompatible change.
 *
 * Thread-safety: cellEvent/event may be called concurrently from
 * sweep workers; everything else is driven by the tool's main thread.
 */

#ifndef PIPEDEPTH_TELEMETRY_MANIFEST_HH
#define PIPEDEPTH_TELEMETRY_MANIFEST_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hh"

namespace pipedepth
{

struct JsonValue;

/** Resolution of one (workload, depth) grid cell. */
struct ManifestCell
{
    enum class Outcome
    {
        Computed,    //!< simulated this run
        Cached,      //!< served from the result cache
        Failed,      //!< schema v2 name; the engine never reports it
                     //!< (a throwing cell retries, then quarantines)
        Quarantined, //!< exhausted retries; the grid has a hole here
    };

    std::string workload;
    int depth = 0;
    Outcome outcome = Outcome::Computed;
    double seconds = 0.0; //!< wall time of the cell (0 for cached)
    std::uint64_t instructions = 0;
    unsigned attempts = 1; //!< tries made (> 1 means the cell retried)
};

/**
 * Stable wire name of a cell outcome
 * ("computed"/"cached"/"failed"/"quarantined").
 */
const char *manifestOutcomeName(ManifestCell::Outcome outcome);

class RunManifest
{
  public:
    /**
     * Version of the manifest.json schema. Bump on any change that
     * removes or re-types a field; readers reject other versions
     * (validateManifest).
     *
     * v2: added run `status` ("complete"/"interrupted"), per-cell
     * `attempts`, the "quarantined" outcome, and the `retried` /
     * `quarantined` cell counts (docs/RELIABILITY.md).
     */
    static constexpr int kSchemaVersion = 2;

    RunManifest();

    void setTool(const std::string &name);
    void setArgv(int argc, const char *const *argv);

    /**
     * Run status written into the manifest: "complete" (default) or
     * "interrupted" (graceful drain after SIGINT/SIGTERM — the cells
     * list then covers only the cells that resolved before the
     * drain).
     */
    void setStatus(const std::string &status);

    /** Append a metadata key/value (kept in insertion order). */
    void addMeta(const std::string &key, const std::string &value);

    /**
     * Start the JSONL event stream at @p path (truncates) and emit
     * the run_start event. @return false with a warning on I/O error.
     */
    bool openEvents(const std::string &path);

    /**
     * Append one event line: {"ts_us":..,"type":type,...fields}.
     * Values are emitted as JSON strings. No-op when no stream is
     * open.
     */
    void event(const std::string &type,
               const std::vector<std::pair<std::string, std::string>>
                   &fields = {});

    /**
     * Emit @p cell's `cell` event (no-op when no stream is open): the
     * live progress record, in the order cells resolve.
     */
    void cellEvent(const ManifestCell &cell);

    /**
     * Append @p cell to the manifest's cells list. The sweep engine
     * appends an engine call's cells when the call ends, in plan
     * order (workload, then depth).
     */
    void recordCell(const ManifestCell &cell);

    /**
     * Capture the current metrics-registry state as the start of the
     * observation window. When set, toJson() emits a `metrics_window`
     * object next to the cumulative `metrics`: per-metric deltas
     * (counter values, histogram counts/sums/buckets) accumulated
     * since this call. A long-running daemon marks the baseline when
     * it starts serving, so its final manifest carries a window
     * comparable to a one-shot pipesim run's cumulative snapshot
     * instead of only counters-since-boot. Gauges are instantaneous
     * and appear in the window at their current value.
     */
    void markMetricsBaseline();

    const std::vector<ManifestCell> &cells() const { return cells_; }

    /**
     * Render the final manifest, snapshotting the metrics registry
     * and span rollups at call time.
     */
    std::string toJson() const;

    /**
     * Write toJson() to @p path and, if streaming, emit run_end and
     * close the stream. @return false with a warning on I/O error.
     */
    bool write(const std::string &path);

  private:
    mutable std::mutex mutex_;
    std::string tool_ = "unknown";
    std::string status_ = "complete";
    std::vector<std::string> argv_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<ManifestCell> cells_;
    std::string created_at_; //!< wall-clock ISO 8601 UTC at construction
    std::ofstream events_;
    bool events_open_ = false;
    bool window_set_ = false; //!< markMetricsBaseline() was called
    std::vector<MetricSnapshot> window_baseline_;
};

/**
 * Check that @p manifest is a structurally valid manifest of the
 * current schema version: required fields present and well-typed,
 * schema_version == RunManifest::kSchemaVersion, every cell entry
 * complete with a known outcome. On failure @p error (when non-null)
 * names the first offending field.
 */
bool validateManifest(const JsonValue &manifest, std::string *error = nullptr);

} // namespace pipedepth

#endif // PIPEDEPTH_TELEMETRY_MANIFEST_HH
