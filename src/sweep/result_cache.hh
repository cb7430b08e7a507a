/**
 * @file
 * Persistent, content-addressed store of simulation results.
 *
 * The cache is a directory of append-only logs, one per trace:
 * `<trace key>.simlog`, where the trace key is the hasher state every
 * cell key of the trace shares (specCellHasher, traceCellHasher in
 * cache_key.hh). A log is a run of fixed-size frames, one per cell:
 * the cell's CacheKey, its entry exactly as serializeSimResult writes
 * it, and an FNV-1a checksum of both. A writer appends a group of
 * frames with one write(2) on an O_APPEND descriptor, then one fsync:
 * no temp file, no lock, and concurrent appenders (threads, or
 * processes sharing the cache) never interleave their bytes on a local
 * filesystem.
 *
 * Reads are tolerant of corruption: damaged bytes (a frame failing
 * framing or its checksum, a torn append, or a frame that is not a
 * conserving run) are skipped, so only their cells read as misses and
 * are recomputed. A bad cache can cost time, never correctness.
 *
 * The entry payload deliberately excludes the workload name and the
 * PipelineConfig: both are part of the key, so the engine reattaches
 * the exact request-side values on a hit. That keeps frames small
 * (a few hundred bytes) and of one size.
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

/** One frame of a log: a cell's key and its run. */
struct CachedCell
{
    CacheKey key;
    SimResult result;
};

/**
 * Directory of result logs, one per trace.
 *
 * Thread-safe: reads and appends may run concurrently from sweep
 * workers and from other processes. A default-constructed (disabled)
 * cache reads nothing and drops every append.
 */
class ResultCache
{
  public:
    /** Disabled cache: no directory, all reads miss. */
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
     * Read log @p log once (the `cache.probe` span, tagged `frames`):
     * the last intact frame of each key, in first-appearance order. A
     * tail shorter than one frame is an append in progress, or one cut
     * short, and is skipped. Empty when the log is absent or
     * unreadable (`cache.probe.miss`, `cache.probe.ioerror`). Damage
     * costs only the damaged frames: bytes that are not a
     * checksum-clean frame (key bytes included) are skipped up to the
     * next offset where one starts, and a checksum-clean frame that is
     * not a conserving run (instructions, base work and cycles, a
     * zero residual, buckets summing to cycles) is skipped as one
     * frame. The log is left as it is; the caller recomputes.
     *
     * Damage is reported (each region once under
     * `cache.probe.corrupt`, and the process's first with a warning)
     * only when it may have cost a cell: when a key in @p wanted has
     * no intact frame, or @p wanted is empty (the whole log was
     * asked for). Damage that later frames healed, such as a torn
     * append the walk of its cells landed behind, reads clean.
     */
    std::vector<CachedCell> read(const CacheKey &log,
                                 const std::vector<CacheKey> &wanted = {})
        const;

    /**
     * Append @p cells to log @p log: one write(2) of every frame on an
     * O_APPEND descriptor, then one fsync (the `cache.store` span,
     * tagged `workload`, `frames` and `bytes`). Counts the cells under
     * `cache.entry.store`, or under `cache.entry.store_fail` when the
     * open, the write or the fsync fails; a failed open or write
     * appends nothing.
     * @return true if every frame was written and synced
     */
    bool append(const CacheKey &log,
                const std::vector<CachedCell> &cells) const;

    /**
     * The one-cell case of read: the run filed under @p key in the log
     * addressed by @p key itself, or nullopt.
     */
    std::optional<SimResult> load(const CacheKey &key) const;

    /**
     * The one-cell case of append: @p result under @p key, in the log
     * addressed by @p key itself.
     */
    bool store(const CacheKey &key, const SimResult &result) const;

    /** Path of log @p log (for tests/tools). */
    std::string logPath(const CacheKey &log) const;

  private:
    std::string dir_; //!< empty = disabled
};

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_RESULT_CACHE_HH
