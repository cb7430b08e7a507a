/**
 * @file
 * Persistent, content-addressed store of simulation results.
 *
 * One cache entry holds the serialized counters of one SimResult,
 * filed under the hex form of its CacheKey (cache_key.hh). The store
 * is safe against concurrent writers (entries are written to a
 * temporary file and atomically renamed into place) and tolerant of
 * corruption: an entry that is truncated, bit-flipped, from a
 * different format version, otherwise unreadable, or not a conserving
 * run is treated as a miss and recomputed — a bad cache can cost
 * time, never correctness.
 *
 * The entry payload deliberately excludes the workload name and the
 * PipelineConfig: both are part of the key, so the engine reattaches
 * the exact request-side values on a hit. That keeps entries small
 * (a few hundred bytes) and the format free of variable-size
 * structures.
 */

#ifndef PIPEDEPTH_SWEEP_RESULT_CACHE_HH
#define PIPEDEPTH_SWEEP_RESULT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sweep/cache_key.hh"
#include "uarch/sim_result.hh"

namespace pipedepth
{

/**
 * Serialize the measured counters of @p result (not its name/config)
 * to the canonical little-endian entry payload. Also the canonical
 * byte representation for result equality in tests: two SimResults
 * with equal payloads measured identical executions.
 */
std::vector<std::uint8_t> serializeSimResult(const SimResult &result);

/**
 * Inverse of serializeSimResult plus framing validation.
 * @return false (leaving @p out untouched) if the bytes are not a
 *         complete, checksum-clean entry of the current version.
 */
bool deserializeSimResult(const std::vector<std::uint8_t> &bytes,
                          SimResult *out);

/**
 * Directory of serialized entries, one file per key.
 *
 * Thread-safe: load/store may be called concurrently from sweep
 * workers. A default-constructed (disabled) cache misses on every
 * load and drops every store.
 */
class ResultCache
{
  public:
    /** Disabled cache: no directory, all loads miss. */
    ResultCache() = default;

    /**
     * Cache rooted at @p dir (created if absent). If the directory
     * cannot be created the cache degrades to disabled with a
     * warning.
     */
    explicit ResultCache(const std::string &dir);

    /**
     * Resolve the cache directory from the environment:
     * $PIPEDEPTH_CACHE_DIR if set, else $XDG_CACHE_HOME/pipedepth,
     * else $HOME/.cache/pipedepth, else .pipedepth-cache in the
     * working directory. An empty $PIPEDEPTH_CACHE_DIR disables
     * caching (returns "").
     *
     * The first resolution of a process announces the chosen
     * directory on stderr (a warning when falling back to
     * .pipedepth-cache in the current directory — that usually means
     * HOME and XDG_CACHE_HOME are both unset, e.g. a stripped CI
     * environment, and a cache directory silently appearing in the
     * CWD is surprising). @p source, when non-null, receives a
     * static string naming the rule that matched
     * ("PIPEDEPTH_CACHE_DIR", "XDG_CACHE_HOME", "HOME" or "cwd") —
     * tests use it to pin the resolution order.
     */
    static std::string resolveDefaultDir(const char **source = nullptr);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /**
     * Fetch the entry for @p key: nullopt on a miss, an I/O error or
     * an entry that fails validation: framing, checksum, or a run's
     * invariants (instructions, base work and cycles, a zero residual,
     * buckets summing to cycles). A corrupt entry is evicted and
     * counted under `cache.probe.corrupt`; the caller recomputes.
     */
    std::optional<SimResult> load(const CacheKey &key) const;

    /**
     * Persist @p result under @p key (atomic rename; last writer
     * wins, which is harmless because entries are content-addressed).
     * @return true if the entry was written
     */
    bool store(const CacheKey &key, const SimResult &result) const;

    /** Path an entry for @p key would live at (for tests/tools). */
    std::string entryPath(const CacheKey &key) const;

    /**
     * Remove `*.tmp.<pid>.<n>` files whose writer process is gone
     * (crashed or killed mid-store). Runs automatically when a cache
     * opens; exposed for tests. Removals are counted under the
     * `cache.tmp.sweep` metric. @return files removed
     */
    std::size_t sweepStaleTempFiles() const;

  private:
    std::string dir_; //!< empty = disabled
};

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_RESULT_CACHE_HH
