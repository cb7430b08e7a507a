#include "sweep/shard_coordinator.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/proc.hh"
#include "sweep/cache_key.hh"
#include "telemetry/manifest.hh"
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
    Counter &takeover =
        MetricsRegistry::instance().counter("sweep.shard.takeover");
    Counter &done_skip =
        MetricsRegistry::instance().counter("sweep.shard.done_skip");
    Counter &busy_wait =
        MetricsRegistry::instance().counter("sweep.shard.busy_wait");
    Counter &quarantine_record = MetricsRegistry::instance().counter(
        "sweep.shard.quarantine.record");
    Counter &quarantine_hit = MetricsRegistry::instance().counter(
        "sweep.shard.quarantine.hit");
};

ShardMetrics &
shardMetrics()
{
    static ShardMetrics m;
    return m;
}

/**
 * Publish @p content at @p path atomically: write a temp file beside
 * it, stamped with the pid and @p seq so it is unique per writer
 * thread too, fsync, rename. @return false, with the temp file
 * removed, on any failed step.
 */
bool
writeFileAtomic(const std::string &path, const std::string &content,
                std::uint64_t seq)
{
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(seq);
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (!out)
        return false;
    const bool written =
        std::fwrite(content.data(), 1, content.size(), out) ==
            content.size() &&
        std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
    const bool closed = std::fclose(out) == 0;
    if (written && closed && std::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    std::remove(tmp.c_str());
    return false;
}

bool
fileExists(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::exists(path, ec) && !ec;
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

std::string
ShardCoordinator::leasePath(const std::string &key) const
{
    return dir_ + "/lease." + keyHash(key);
}

std::string
ShardCoordinator::donePath(const std::string &key) const
{
    return dir_ + "/done." + keyHash(key);
}

std::string
ShardCoordinator::quarantinePath(const std::string &workload,
                                 int depth) const
{
    StableHasher h;
    h.str(workload);
    h.i64(depth);
    return dir_ + "/quar." + h.key().hex();
}

long
ShardCoordinator::readLeasePid(const std::string &lease_path)
{
    std::ifstream in(lease_path);
    if (!in)
        return 0;
    long pid = 0;
    in >> pid;
    return in ? pid : 0;
}

ShardCoordinator::Claim
ShardCoordinator::tryClaim(const std::string &key, bool steal)
{
    if (dir_.empty())
        return Claim::Uncoordinated;
    if (isDone(key)) {
        shardMetrics().done_skip.add();
        return Claim::Done;
    }

    const std::string lease = leasePath(key);
    std::uint64_t seq;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        seq = ++claim_seq_;
    }
    const std::string tmp = lease + ".claim." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(seq);
    {
        std::ofstream out(tmp);
        out << ::getpid() << " shard " << options_.shard_id << "\n";
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            PP_WARN("shard coordinator: cannot write claim temp for '",
                    key, "'");
            return Claim::Uncoordinated;
        }
    }

    // Bounded: every iteration either links (win), observes a live
    // owner (Busy), or removes/loses a dead lease — contention beyond
    // a few rounds means the caller should back off and poll.
    for (int round = 0; round < 8; ++round) {
        if (::link(tmp.c_str(), lease.c_str()) == 0) {
            std::remove(tmp.c_str());
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                owned_.insert(key);
            }
            shardMetrics().claim.add();
            if (steal)
                shardMetrics().steal.add();
            return Claim::Acquired;
        }
        if (errno != EEXIST) {
            PP_WARN("shard coordinator: link('", lease,
                    "'): ", std::strerror(errno));
            std::remove(tmp.c_str());
            return Claim::Uncoordinated;
        }

        // The owner may have finished (done published, lease gone)
        // between our isDone probe and the link attempt.
        if (isDone(key)) {
            std::remove(tmp.c_str());
            shardMetrics().done_skip.add();
            return Claim::Done;
        }

        const long owner = readLeasePid(lease);
        const bool owner_is_self =
            owner == static_cast<long>(::getpid());
        if (owner != 0 && !owner_is_self &&
            processAlive(static_cast<pid_t>(owner))) {
            std::remove(tmp.c_str());
            shardMetrics().busy_wait.add();
            return Claim::Busy;
        }
        // owner == 0: the lease vanished (released) or is unreadable
        // mid-publication — retry the link. A readable dead pid (or a
        // stale lease stamped with our own pid, possible only across
        // a coordinator restart reusing the pid): take it over. The
        // rename is the CAS — exactly one racer moves the old lease
        // aside (the loser gets ENOENT and retries against whatever
        // the winner publishes).
        if (owner != 0) {
            const std::string reap = lease + ".reap." +
                                     std::to_string(::getpid()) + "." +
                                     std::to_string(seq);
            if (std::rename(lease.c_str(), reap.c_str()) == 0) {
                std::remove(reap.c_str());
                shardMetrics().takeover.add();
                PP_INFORM("shard ", options_.shard_id,
                          ": taking over lease of dead worker pid ",
                          owner, " for group ", keyHash(key));
            }
        }
    }
    std::remove(tmp.c_str());
    shardMetrics().busy_wait.add();
    return Claim::Busy;
}

void
ShardCoordinator::markDone(const std::string &key)
{
    if (dir_.empty())
        return;
    std::uint64_t seq;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        seq = ++claim_seq_;
    }
    if (!writeFileAtomic(donePath(key),
                         std::to_string(::getpid()) + "\n", seq)) {
        PP_WARN("shard coordinator: cannot publish done marker for "
                "group ",
                keyHash(key));
    }
    release(key);
}

void
ShardCoordinator::release(const std::string &key)
{
    if (dir_.empty())
        return;
    bool owned;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        owned = owned_.erase(key) > 0;
    }
    if (owned)
        std::remove(leasePath(key).c_str());
}

bool
ShardCoordinator::isDone(const std::string &key) const
{
    return !dir_.empty() && fileExists(donePath(key));
}

void
ShardCoordinator::recordQuarantine(const FailureRecord &record)
{
    if (dir_.empty())
        return;
    std::ostringstream os;
    os << "{\n";
    os << "  \"workload\": " << jsonQuote(record.workload) << ",\n";
    os << "  \"depth\": " << record.depth << ",\n";
    os << "  \"cause\": " << jsonQuote(record.cause) << ",\n";
    os << "  \"failpoint\": " << jsonQuote(record.failpoint) << ",\n";
    os << "  \"attempts\": " << record.attempts << "\n";
    os << "}\n";
    std::uint64_t seq;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        seq = ++claim_seq_;
    }
    if (writeFileAtomic(quarantinePath(record.workload, record.depth),
                        os.str(), seq)) {
        shardMetrics().quarantine_record.add();
    } else {
        PP_WARN("shard coordinator: cannot record quarantine of ",
                record.workload, " depth ", record.depth);
    }
}

bool
ShardCoordinator::lookupQuarantine(const std::string &workload,
                                   int depth, FailureRecord *out) const
{
    if (dir_.empty())
        return false;
    const std::string path = quarantinePath(workload, depth);
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();

    FailureRecord record;
    record.workload = workload;
    record.depth = depth;
    record.cause = "quarantined by another shard";
    record.attempts = 1;
    JsonValue doc;
    std::string error;
    if (JsonValue::parse(buf.str(), &doc, &error) && doc.isObject()) {
        if (const JsonValue *v = doc.find("cause"); v && v->isString())
            record.cause = v->string;
        if (const JsonValue *v = doc.find("failpoint");
            v && v->isString())
            record.failpoint = v->string;
        if (const JsonValue *v = doc.find("attempts");
            v && v->isNumber())
            record.attempts = static_cast<unsigned>(v->number);
    }
    shardMetrics().quarantine_hit.add();
    if (out)
        *out = std::move(record);
    return true;
}

std::string
shardRollupPath(const std::string &dir, unsigned shard_id)
{
    return dir + "/shard." + std::to_string(shard_id) + ".json";
}

bool
writeShardRollup(const std::string &dir, const ManifestShard &rollup)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"shard_id\": " << rollup.shard_id << ",\n";
    os << "  \"exit_code\": " << rollup.exit_code << ",\n";
    os << "  \"cells_computed\": " << rollup.cells_computed << ",\n";
    os << "  \"cache_hits\": " << rollup.cache_hits << ",\n";
    os << "  \"cells_quarantined\": " << rollup.cells_quarantined
       << ",\n";
    os << "  \"restarts\": " << rollup.restarts << ",\n";
    os << "  \"wall_seconds\": " << jsonNumber(rollup.wall_seconds)
       << "\n";
    os << "}\n";
    return writeFileAtomic(shardRollupPath(dir, rollup.shard_id),
                           os.str(), rollup.shard_id);
}

std::vector<ManifestShard>
readShardRollups(const std::string &dir, unsigned shards)
{
    std::vector<ManifestShard> rollups;
    for (unsigned id = 0; id < shards; ++id) {
        std::ifstream in(shardRollupPath(dir, id));
        if (!in)
            continue;
        std::ostringstream buf;
        buf << in.rdbuf();
        JsonValue doc;
        std::string error;
        if (!JsonValue::parse(buf.str(), &doc, &error) ||
            !doc.isObject())
            continue;
        ManifestShard r;
        r.shard_id = id;
        const auto num = [&](const char *key, auto fallback) {
            const JsonValue *v = doc.find(key);
            return v && v->isNumber()
                       ? static_cast<decltype(fallback)>(v->number)
                       : fallback;
        };
        r.exit_code = num("exit_code", 0);
        r.cells_computed = num("cells_computed", std::uint64_t{0});
        r.cache_hits = num("cache_hits", std::uint64_t{0});
        r.cells_quarantined =
            num("cells_quarantined", std::uint64_t{0});
        r.restarts = num("restarts", std::uint64_t{0});
        r.wall_seconds = num("wall_seconds", 0.0);
        rollups.push_back(r);
    }
    return rollups;
}

} // namespace pipedepth
