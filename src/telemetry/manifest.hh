/**
 * @file
 * Structured run manifests: the provenance record of a run.
 *
 * Every SweepEngine-driven invocation (pipesim, calibration_report)
 * can write a `manifest.json` when it ends: schema-versioned,
 * capturing the tool and argv, the git revision of the build,
 * free-form metadata (cache directory, config hash, simulator version
 * tag), the outcome of every cell (computed / cached / quarantined,
 * with its instructions), the full metrics-registry snapshot, and
 * per-name span rollups. A run stopped by a signal writes none; the
 * result cache holds what it finished, and the same command run again
 * writes the manifest of the whole run.
 *
 * The manifest is the reproduction contract: re-running the tool
 * named in `tool` with `argv` at revision `git` must reproduce the
 * figure (results are deterministic; only timestamps and durations
 * differ — tests/telemetry/test_manifest.cc pins exactly that).
 * docs/OBSERVABILITY.md documents the schema; bump kSchemaVersion on
 * any incompatible change.
 *
 * Thread-compatibility: one thread drives a manifest; the sweep
 * engine records an engine call's cells from its calling thread.
 */

#ifndef PIPEDEPTH_TELEMETRY_MANIFEST_HH
#define PIPEDEPTH_TELEMETRY_MANIFEST_HH

#include <cstdint>
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
        Quarantined, //!< its walk threw; the grid has a hole here
    };

    std::string workload;
    int depth = 0;
    Outcome outcome = Outcome::Computed;
    std::uint64_t instructions = 0;
};

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
     * `quarantined` cell counts (docs/RELIABILITY.md). A manifest is
     * written only by a run that ended, so its status is always
     * "complete"; validateManifest still accepts "interrupted".
     * v3: a manifest keeps only what the run measured. Removed
     * per-cell `attempts` and `seconds`, the "failed" outcome and the
     * `failed` / `retried` cell counts: a cell makes one attempt, and
     * a walk's wall time is its `sweep.cell.fused` span.
     */
    static constexpr int kSchemaVersion = 3;

    RunManifest();

    void setTool(const std::string &name);
    void setArgv(int argc, const char *const *argv);

    /** Append a metadata key/value (kept in insertion order). */
    void addMeta(const std::string &key, const std::string &value);

    /**
     * Append @p cell to the manifest's cells list. The sweep engine
     * appends an engine call's cells when the call ends, in plan
     * order (workload, then depth).
     */
    void recordCell(const ManifestCell &cell);

    const std::vector<ManifestCell> &cells() const { return cells_; }

    /**
     * Render the final manifest, snapshotting the metrics registry
     * and span rollups at call time.
     */
    std::string toJson() const;

    /**
     * Write toJson() to @p path. @return false with a warning on I/O
     * error.
     */
    bool write(const std::string &path) const;

  private:
    std::string tool_ = "unknown";
    std::vector<std::string> argv_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<ManifestCell> cells_;
    std::string created_at_; //!< wall-clock ISO 8601 UTC at construction
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
