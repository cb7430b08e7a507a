/**
 * @file
 * Sweep-level checkpoints: kill a sweep, resume it byte-identically.
 *
 * The heavy lifting of resumption is done by the content-addressed
 * ResultCache — every completed cell is journalled there under a key
 * that depends only on (workload, trace length, config, simulator
 * version), so a re-run of the same grid serves finished cells from
 * disk and recomputes only the holes. What the cache cannot answer is
 * *which sweep was running*: the checkpoint file records exactly
 * that — the tool's argv, the config hash of the grid, and how far
 * the run got — so `pipesim --resume <file>` can re-create the
 * original invocation without the user retyping it.
 *
 * The file is JSON, schema-versioned, and written atomically (temp
 * file + rename, like the result cache) after every progress update;
 * a `kill -9` at any instant leaves either the previous checkpoint or
 * the new one, never a torn file. Status moves running -> interrupted
 * (graceful drain) or running -> complete; a checkpoint that still
 * says "running" after the process died (SIGKILL, power loss) is
 * accepted by resume just the same. See docs/RELIABILITY.md.
 */

#ifndef PIPEDEPTH_SWEEP_CHECKPOINT_HH
#define PIPEDEPTH_SWEEP_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pipedepth
{

/** One sweep's resumable state. */
struct SweepCheckpoint
{
    /**
     * Version of the checkpoint schema; readers reject others.
     * v1: tool, argv, config_hash, status, cells_done, cells_total.
     */
    static constexpr int kSchemaVersion = 1;

    std::string tool;               //!< writing tool ("pipesim")
    std::vector<std::string> argv;  //!< original invocation, verbatim
    std::string config_hash;        //!< grid identity (cache-key hash)
    std::string status = "running"; //!< running|interrupted|complete
    std::uint64_t cells_done = 0;   //!< cells resolved so far
    std::uint64_t cells_total = 0;  //!< cells in the full grid

    /** Render as pretty-printed JSON (the on-disk format). */
    std::string toJson() const;
};

/**
 * Publish @p content at @p path atomically, for the checkpoint journal
 * and the shard files: write @p tmp (a writer-unique name beside
 * @p path), fsync, rename. @return nullptr on success; else, with
 * @p tmp removed, the failed step for a warning ("cannot write",
 * "short write of" or "cannot publish").
 */
const char *publishFile(const std::string &path, const std::string &tmp,
                        const std::string &content);

/**
 * Atomically write @p checkpoint to @p path (temp file + rename; the
 * temp name embeds the pid so concurrent writers never collide).
 * Failpoint "checkpoint.write" turns the write into a failure.
 * @return false with a warning on I/O error — checkpointing is
 * best-effort; the sweep itself never aborts over it.
 */
bool writeCheckpoint(const std::string &path,
                     const SweepCheckpoint &checkpoint);

/**
 * Load and validate a checkpoint. @return false (reason in @p error,
 * when non-null) when the file is unreadable, malformed, the wrong
 * schema version, or missing fields.
 */
bool readCheckpoint(const std::string &path, SweepCheckpoint *out,
                    std::string *error = nullptr);

/**
 * Remove `<path>.tmp.<pid>` journals whose writer process is gone
 * (SIGKILLed mid-write, before the atomic rename). Mirrors
 * ResultCache::sweepStaleTempFiles — without it a crash-looping run
 * accumulates orphans next to its checkpoint forever. Runs
 * automatically when SweepEngine::attachCheckpoint opens the journal;
 * exposed for tools and tests. Removals are counted under the
 * `checkpoint.tmp.sweep` metric. A live (or not-ours-to-signal) pid
 * keeps the file — sweeping must never race an in-flight write.
 * @return files removed
 */
std::size_t sweepStaleCheckpointTempFiles(const std::string &path);

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_CHECKPOINT_HH
