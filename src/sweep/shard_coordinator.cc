#include "sweep/shard_coordinator.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/logging.hh"
#include "sweep/cache_key.hh"
#include "telemetry/metrics.hh"

namespace pipedepth
{

namespace
{

/** Registry instruments (bound once; see telemetry/metrics.hh). */
struct ShardMetrics
{
    Counter &claim =
        MetricsRegistry::instance().counter("sweep.shard.claim");
    Counter &steal =
        MetricsRegistry::instance().counter("sweep.shard.steal");
    Counter &busy_wait =
        MetricsRegistry::instance().counter("sweep.shard.busy_wait");
};

ShardMetrics &
shardMetrics()
{
    static ShardMetrics m;
    return m;
}

} // namespace

std::string
ShardCoordinator::keyHash(const std::string &key)
{
    StableHasher h;
    h.str(key);
    return h.key().hex();
}

ShardCoordinator::ShardCoordinator(const ShardOptions &options)
    : options_(options), dir_(options.dir)
{
    if (options_.shards == 0)
        options_.shards = 1;
    if (options_.shard_id >= options_.shards)
        options_.shard_id = 0;
    if (dir_.empty()) {
        PP_WARN("shard coordinator: no coordination directory; "
                "running uncoordinated");
        return;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        PP_WARN("shard coordinator: cannot create '", dir_,
                "': ", ec.message(), "; running uncoordinated");
        dir_.clear();
    }
}

ShardCoordinator::~ShardCoordinator()
{
    for (const auto &[key, fd] : held_)
        ::close(fd);
}

ShardCoordinator::Claim
ShardCoordinator::tryClaim(const std::string &key, bool steal)
{
    if (dir_.empty())
        return Claim::Uncoordinated;

    // O_RDWR, not O_RDONLY: NFS emulates flock with a POSIX write
    // lock, which needs a descriptor open for writing.
    const std::string lease = dir_ + "/lease." + keyHash(key);
    const int fd =
        ::open(lease.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        PP_WARN("shard coordinator: open('", lease,
                "'): ", std::strerror(errno));
        return Claim::Uncoordinated;
    }
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        const int err = errno;
        ::close(fd);
        if (err == EWOULDBLOCK) {
            shardMetrics().busy_wait.add();
            return Claim::Busy;
        }
        PP_WARN("shard coordinator: flock('", lease,
                "'): ", std::strerror(err));
        return Claim::Uncoordinated;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        held_[key] = fd;
    }
    shardMetrics().claim.add();
    if (steal)
        shardMetrics().steal.add();
    return Claim::Acquired;
}

void
ShardCoordinator::release(const std::string &key)
{
    int fd = -1;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = held_.find(key);
        if (it == held_.end())
            return;
        fd = it->second;
        held_.erase(it);
    }
    ::close(fd); // drops the lock; the file stays for the next claim
}

} // namespace pipedepth
