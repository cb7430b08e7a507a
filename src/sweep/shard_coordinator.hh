/**
 * @file
 * ShardCoordinator: crash-fault-tolerant work claiming for sweeps
 * sharded across worker processes.
 *
 * ROADMAP item 2: one workload x depth grid, N `pipesim --sweep
 * --shards N --shard-id K` worker processes, any of which may be
 * SIGKILLed mid-cell — and the sweep still completes, byte-identical
 * to a single-process run. The coordinator is the small on-disk
 * protocol that makes that true. It deliberately owns no results:
 * the content-addressed result cache (result_cache.hh) is the shared
 * result substrate, so the only thing shards must agree on is *who
 * is computing which cell group right now* — and that agreement may
 * be lost (a crash) without losing anything but time.
 *
 * Everything lives in one coordination directory, shared by the
 * workers of a run:
 *
 *  - `lease.<key>`  — group ownership. Claimed with link(2) of a
 *    pid-stamped temp file (atomic: EEXIST means someone owns it).
 *    A lease whose stamped pid is dead (common/proc.hh — EPERM means
 *    alive) is taken over by atomically rename(2)-ing it aside: the
 *    rename is the CAS, exactly one racer wins (the loser gets
 *    ENOENT) and the winner re-claims the now-free lease. The same
 *    pid-stamped atomic-rename idiom as the result cache's entries,
 *    turned from publication into mutual exclusion.
 *  - `done.<key>`   — completion marker, written (tmp + fsync +
 *    rename) after every cell of the group landed in the result
 *    cache or in a quarantine record. Once it exists the group is
 *    never claimed again.
 *  - `quar.<key>`   — one JSON FailureRecord per quarantined cell,
 *    so no shard re-runs another shard's exhausted-retry hole and
 *    every shard's final grid shows the same holes.
 *
 * Crash safety in one paragraph: a worker that dies mid-group leaves
 * a lease stamped with its dead pid and some prefix of the group's
 * cells in the cache. A surviving worker's tryClaim() detects the
 * dead pid, wins the rename CAS, re-claims, re-probes (the dead
 * worker's finished cells are cache hits — nothing is recomputed)
 * and computes only the remainder. Claims are idempotent and results
 * content-addressed, so even the one unavoidable race — two workers
 * both computing a cell in the takeover window — only costs duplicate
 * work, never divergent results.
 *
 * Partitioning is deterministic (ownerOf: round-robin by canonical
 * group index), purely advisory, and enforced nowhere: workers claim
 * their own partition first and then *steal* — claim any remaining
 * group regardless of owner — so stragglers and dead shards drain
 * onto whoever is still alive. A single worker of an N-shard run
 * completes the whole grid alone.
 *
 * Observability: `sweep.shard.*` counters (claim, steal, takeover,
 * done_skip, busy_wait, quarantine record/hit) in the metrics
 * registry, snapshotted into run manifests.
 *
 * Thread-safety: one coordinator is shared by all of an engine's
 * sweep workers; all methods are safe to call concurrently (distinct
 * groups — the engine schedules each group on exactly one thread).
 *
 * Protocol details and takeover rules: docs/SHARDING.md.
 */

#ifndef PIPEDEPTH_SWEEP_SHARD_COORDINATOR_HH
#define PIPEDEPTH_SWEEP_SHARD_COORDINATOR_HH

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "sweep/depth_sweep.hh"

namespace pipedepth
{

struct ManifestShard; // telemetry/manifest.hh

/** Coordinator construction knobs (SweepEngineOptions maps 1:1). */
struct ShardOptions
{
    unsigned shards = 1;   //!< total workers of the run
    unsigned shard_id = 0; //!< this worker, in [0, shards)
    std::string dir;       //!< shared coordination directory
    unsigned poll_ms = 25; //!< wait between probes of a busy lease
};

class ShardCoordinator
{
  public:
    /**
     * Create the coordination directory (best-effort; a failure
     * disables coordination and every claim answers Uncoordinated —
     * the sweep still completes, just without cross-process
     * exclusion).
     */
    explicit ShardCoordinator(const ShardOptions &options);

    unsigned shards() const { return options_.shards; }
    unsigned shardId() const { return options_.shard_id; }
    unsigned pollMs() const { return options_.poll_ms; }
    const std::string &dir() const { return dir_; }

    /** Advisory owner of canonical group @p index: round-robin. */
    unsigned ownerOf(std::size_t index) const
    {
        return static_cast<unsigned>(index % options_.shards);
    }
    bool mine(std::size_t index) const
    {
        return ownerOf(index) == options_.shard_id;
    }

    enum class Claim
    {
        Acquired,      //!< we own the lease; compute, then markDone
        Done,          //!< completion marker exists; probe the cache
        Busy,          //!< a live worker owns it; poll again later
        Uncoordinated, //!< protocol I/O failed; compute without a lease
    };

    /**
     * Try to claim the group named @p key. @p steal tags the claim as
     * work stealing (a group outside this worker's partition) for the
     * sweep.shard.steal counter only — stealing and claiming are the
     * same protocol.
     */
    Claim tryClaim(const std::string &key, bool steal = false);

    /**
     * Publish the group's completion marker and release its lease.
     * Call only after every cell of the group is in the result cache
     * or recorded as quarantined.
     */
    void markDone(const std::string &key);

    /** Release a held lease without a completion marker (failure
     *  path: the group becomes claimable again). */
    void release(const std::string &key);

    /** Does the completion marker of @p key exist? */
    bool isDone(const std::string &key) const;

    /**
     * Propagate a quarantined cell to the other shards: one atomic
     * JSON record per (workload, depth). Idempotent.
     */
    void recordQuarantine(const FailureRecord &record);

    /**
     * Did any shard quarantine (workload, depth)? On a hit fills
     * @p out (when non-null) with the recorded failure so the local
     * grid shows the same hole, cause and attempt count.
     */
    bool lookupQuarantine(const std::string &workload, int depth,
                          FailureRecord *out = nullptr) const;

    /** Stable hex name for a group key (file-name safe). */
    static std::string keyHash(const std::string &key);

  private:
    std::string leasePath(const std::string &key) const;
    std::string donePath(const std::string &key) const;
    std::string quarantinePath(const std::string &workload,
                               int depth) const;
    /** Owner pid stamped in @p lease_path; 0 when unreadable. */
    static long readLeasePid(const std::string &lease_path);

    ShardOptions options_;
    std::string dir_; //!< empty when the directory could not be made
    std::mutex mutex_;
    std::set<std::string> owned_; //!< lease keys this process holds
    std::uint64_t claim_seq_ = 0; //!< unique temp-file suffix
};

/** `<dir>/shard.<id>.json`. */
std::string shardRollupPath(const std::string &dir, unsigned shard_id);

/** Atomically write a shard worker's @p rollup, on its exit, to
 *  shardRollupPath(dir, id). */
bool writeShardRollup(const std::string &dir, const ManifestShard &rollup);

/**
 * Read every `shard.<id>.json` for ids [0, shards), for the merged
 * manifest's `shards` field; unreadable or missing files (a worker
 * that never got to exit cleanly) are skipped.
 */
std::vector<ManifestShard> readShardRollups(const std::string &dir,
                                            unsigned shards);

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_SHARD_COORDINATOR_HH
