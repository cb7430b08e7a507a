/**
 * @file
 * ShardCoordinator: which process walks which cell group, for sweeps
 * sharded across worker processes.
 *
 * One workload x depth grid, N `pipesim --sweep --shards N
 * --shard-id K` worker processes, any of which may be SIGKILLed
 * mid-cell — and the sweep still completes, byte-identical to a
 * single-process run. The coordinator owns no results: the
 * content-addressed result cache (result_cache.hh) is the shared
 * result substrate, so the only thing shards must agree on is *who
 * is walking which cell group right now* — and that agreement may be
 * lost (a crash) without losing anything but time.
 *
 * The whole protocol is one lock per group. A group's lease is
 * `flock(LOCK_EX | LOCK_NB)` on `<dir>/lease.<keyHash>`, an empty
 * file opened `O_CREAT | O_CLOEXEC`; the descriptor stays open while
 * the group walks and release() closes it. The kernel drops the lock
 * the moment its holder dies — SIGKILL included, before the holder
 * is reaped — so there is nothing to take over and nothing to clean
 * up. Lease files are never unlinked: an unlink between one
 * process's open and its flock would let a third process lock a
 * fresh inode at the same path while the second holds the old one.
 * A lease file is empty and says nothing about its group; a finished
 * group is one whose cells are all cache hits, and a hole stays with
 * the process that met it (a re-run recomputes it).
 *
 * Partitioning is deterministic (ownerOf: round-robin by canonical
 * group index), purely advisory, and enforced nowhere: workers claim
 * their own partition first and then *steal* — claim any remaining
 * group regardless of owner — so stragglers and dead shards drain
 * onto whoever is still alive. A single worker of an N-shard run
 * completes the whole grid alone.
 *
 * Observability: `sweep.shard.{claim,steal,busy_wait}` counters in
 * the metrics registry, snapshotted into run manifests.
 *
 * Thread-safety: one coordinator is shared by all of an engine's
 * sweep workers; all methods are safe to call concurrently. Every
 * claim opens its own file description, so a group held by one
 * thread, or by another coordinator in the same process, is Busy to
 * the rest.
 *
 * Protocol details: docs/SHARDING.md.
 */

#ifndef PIPEDEPTH_SWEEP_SHARD_COORDINATOR_HH
#define PIPEDEPTH_SWEEP_SHARD_COORDINATOR_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

namespace pipedepth
{

/** Coordinator construction knobs (SweepEngineOptions maps 1:1). */
struct ShardOptions
{
    unsigned shards = 1;   //!< total workers of the run
    unsigned shard_id = 0; //!< this worker, in [0, shards)
    std::string dir;       //!< shared coordination directory
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

    /** Releases every lease still held. */
    ~ShardCoordinator();

    ShardCoordinator(const ShardCoordinator &) = delete;
    ShardCoordinator &operator=(const ShardCoordinator &) = delete;

    unsigned shards() const { return options_.shards; }

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
        Acquired,      //!< we hold the lock; walk, then release
        Busy,          //!< someone else holds it; poll again later
        Uncoordinated, //!< lock I/O failed; walk without a lease
    };

    /**
     * Try to lock the group named @p key without blocking. @p steal
     * tags the claim as work stealing (a group outside this worker's
     * partition) for the sweep.shard.steal counter only — stealing
     * and claiming are the same lock.
     */
    Claim tryClaim(const std::string &key, bool steal = false);

    /** Drop the lock on @p key, if this coordinator holds it. */
    void release(const std::string &key);

    /** Stable hex name for a group key (file-name safe). */
    static std::string keyHash(const std::string &key);

  private:
    ShardOptions options_;
    std::string dir_; //!< empty when the directory could not be made
    std::mutex mutex_;
    std::map<std::string, int> held_; //!< group key -> locked fd
};

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_SHARD_COORDINATOR_HH
