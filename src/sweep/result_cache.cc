#include "sweep/result_cache.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

#include <unistd.h>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "common/proc.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"

namespace pipedepth
{

namespace
{

// Entry framing: magic, format version, payload size, FNV-1a checksum
// of the payload, then the payload itself.
constexpr char kMagic[4] = {'P', 'D', 'S', 'R'};
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < size; ++i)
        h = (h ^ data[i]) * 1099511628211ull;
    return h;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putF64(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

/** Cursor over an entry's bytes; reads fail sticky on exhaustion. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        if (!take(4))
            return 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_ - 4 + i]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        if (!take(8))
            return 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ - 8 + i]) << (8 * i);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool ok() const { return ok_; }
    bool exhausted() const { return pos_ == size_; }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

std::vector<std::uint8_t>
payloadOf(const SimResult &r)
{
    std::vector<std::uint8_t> out;
    out.reserve(512);
    putU64(out, static_cast<std::uint64_t>(r.depth));
    putF64(out, r.cycle_time_fo4);
    putU64(out, r.instructions);
    putU64(out, r.cycles);
    putU64(out, r.branches);
    putU64(out, r.mispredicts);
    putU64(out, r.icache_accesses);
    putU64(out, r.icache_misses);
    putU64(out, r.dcache_accesses);
    putU64(out, r.dcache_misses);
    putU64(out, r.l2_accesses);
    putU64(out, r.l2_misses);
    putU64(out, r.mispredict_events);
    putU64(out, r.load_interlock_events);
    putU64(out, r.fp_interlock_events);
    putU64(out, r.int_interlock_events);
    putU64(out, r.dcache_miss_events);
    putU64(out, r.mispredict_stall_cycles);
    putU64(out, r.icache_stall_cycles);
    putU64(out, r.dcache_stall_cycles);
    putU64(out, r.load_interlock_stall_cycles);
    putU64(out, r.fp_interlock_stall_cycles);
    putU64(out, r.int_interlock_stall_cycles);
    putU64(out, r.unit_busy_stall_cycles);
    putU64(out, r.other_stall_cycles);
    putU64(out, r.base_work_cycles);
    putU64(out, r.superscalar_loss_cycles);
    putU64(out, r.drain_cycles);
    putU64(out, static_cast<std::uint64_t>(r.ledger_residual));
    for (const auto &u : r.units) {
        putU64(out, static_cast<std::uint64_t>(u.depth));
        putU64(out, u.active_cycles);
        putU64(out, u.occupancy);
        putU64(out, u.ops);
    }
    return out;
}

} // namespace

std::vector<std::uint8_t>
serializeSimResult(const SimResult &result)
{
    const std::vector<std::uint8_t> payload = payloadOf(result);
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderSize + payload.size());
    for (const char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    putU32(out, kFormatVersion);
    putU64(out, payload.size());
    putU64(out, fnv1a(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

bool
deserializeSimResult(const std::vector<std::uint8_t> &bytes, SimResult *out)
{
    if (bytes.size() < kHeaderSize)
        return false;
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        return false;
    Reader header(bytes.data() + 4, kHeaderSize - 4);
    if (header.u32() != kFormatVersion)
        return false;
    const std::uint64_t payload_size = header.u64();
    const std::uint64_t checksum = header.u64();
    if (bytes.size() != kHeaderSize + payload_size)
        return false;
    if (fnv1a(bytes.data() + kHeaderSize, payload_size) != checksum)
        return false;

    Reader r(bytes.data() + kHeaderSize, payload_size);
    SimResult res;
    res.depth = static_cast<int>(r.u64());
    res.cycle_time_fo4 = r.f64();
    res.instructions = r.u64();
    res.cycles = r.u64();
    res.branches = r.u64();
    res.mispredicts = r.u64();
    res.icache_accesses = r.u64();
    res.icache_misses = r.u64();
    res.dcache_accesses = r.u64();
    res.dcache_misses = r.u64();
    res.l2_accesses = r.u64();
    res.l2_misses = r.u64();
    res.mispredict_events = r.u64();
    res.load_interlock_events = r.u64();
    res.fp_interlock_events = r.u64();
    res.int_interlock_events = r.u64();
    res.dcache_miss_events = r.u64();
    res.mispredict_stall_cycles = r.u64();
    res.icache_stall_cycles = r.u64();
    res.dcache_stall_cycles = r.u64();
    res.load_interlock_stall_cycles = r.u64();
    res.fp_interlock_stall_cycles = r.u64();
    res.int_interlock_stall_cycles = r.u64();
    res.unit_busy_stall_cycles = r.u64();
    res.other_stall_cycles = r.u64();
    res.base_work_cycles = r.u64();
    res.superscalar_loss_cycles = r.u64();
    res.drain_cycles = r.u64();
    res.ledger_residual = static_cast<std::int64_t>(r.u64());
    for (auto &u : res.units) {
        u.depth = static_cast<int>(r.u64());
        u.active_cycles = r.u64();
        u.occupancy = r.u64();
        u.ops = r.u64();
    }
    if (!r.ok() || !r.exhausted())
        return false;
    *out = res;
    return true;
}

namespace
{

/**
 * Is @p r a conserving run: instructions, base work, a zero residual
 * and ledger buckets summing to its (so nonzero) cycles? A checksum-
 * clean entry that is not would abort the reports that read it.
 */
bool
isConservingRun(const SimResult &r)
{
    std::uint64_t left = r.cycles; // counted down: the sum cannot wrap
    for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
        const std::uint64_t c =
            r.ledgerCycles(static_cast<StallBucket>(b));
        if (c > left)
            return false;
        left -= c;
    }
    return left == 0 && r.instructions > 0 && r.base_work_cycles > 0 &&
           r.ledger_residual == 0;
}

/**
 * Is the ".tmp.<pid>.<n>" suffix of @p filename from a process that
 * no longer exists? Temp files are normally renamed or removed by
 * their writer; one left behind by a crashed or killed process would
 * otherwise accumulate forever. A parse failure or a live (or
 * not-ours-to-signal, EPERM) pid keeps the file — sweeping must never
 * race an in-flight store.
 */
bool
isStaleTempFile(const std::string &filename)
{
    const std::size_t tag = filename.find(".tmp.");
    if (tag == std::string::npos)
        return false;
    char *end = nullptr;
    const unsigned long pid =
        std::strtoul(filename.c_str() + tag + 5, &end, 10);
    if (end == filename.c_str() + tag + 5 || *end != '.' || pid == 0)
        return false;
    if (pid == static_cast<unsigned long>(::getpid()))
        return false;
    return !processAlive(static_cast<pid_t>(pid));
}

} // namespace

ResultCache::ResultCache(const std::string &dir) : dir_(dir)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        PP_WARN("sweep cache disabled: cannot create '", dir_, "': ",
                ec.message());
        dir_.clear();
        return;
    }
    sweepStaleTempFiles();
}

std::size_t
ResultCache::sweepStaleTempFiles() const
{
    static Counter &swept =
        MetricsRegistry::instance().counter("cache.tmp.sweep");

    if (!enabled())
        return 0;
    std::size_t removed = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string filename = entry.path().filename().string();
        if (!isStaleTempFile(filename))
            continue;
        std::error_code remove_ec;
        if (std::filesystem::remove(entry.path(), remove_ec) &&
            !remove_ec) {
            ++removed;
            swept.add();
            PP_DEBUG("result cache: swept stale temp file '", filename,
                     "'");
        }
    }
    if (removed) {
        PP_INFORM("result cache: swept ", removed,
                  " stale temp file(s) left by dead writers in '", dir_,
                  "'");
    }
    return removed;
}

std::string
ResultCache::resolveDefaultDir(const char **source)
{
    const char *matched = "cwd";
    std::string dir = ".pipedepth-cache";
    if (const char *env = std::getenv("PIPEDEPTH_CACHE_DIR")) {
        matched = "PIPEDEPTH_CACHE_DIR";
        dir = env; // may be "", meaning: caching off
    } else if (const char *xdg = std::getenv("XDG_CACHE_HOME");
               xdg && *xdg) {
        matched = "XDG_CACHE_HOME";
        dir = std::string(xdg) + "/pipedepth";
    } else if (const char *home = std::getenv("HOME"); home && *home) {
        matched = "HOME";
        dir = std::string(home) + "/.cache/pipedepth";
    }
    if (source)
        *source = matched;

    // Announce the chosen directory once per process so a cache
    // appearing somewhere unexpected is traceable to this decision.
    static bool announced = false;
    if (!announced) {
        announced = true;
        if (dir.empty()) {
            PP_INFORM("result cache disabled (PIPEDEPTH_CACHE_DIR "
                      "is empty)");
        } else if (std::string(matched) == "cwd") {
            PP_WARN("result cache falling back to ./", dir,
                    " in the current directory (HOME and "
                    "XDG_CACHE_HOME are unset); set "
                    "PIPEDEPTH_CACHE_DIR to choose a location");
        } else {
            PP_INFORM("result cache directory: ", dir, " (from ",
                      matched, ")");
        }
    }
    return dir;
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    return dir_ + "/" + key.hex() + ".simres";
}

std::optional<SimResult>
ResultCache::load(const CacheKey &key) const
{
    static Counter &misses =
        MetricsRegistry::instance().counter("cache.probe.miss");
    static Counter &corruptions =
        MetricsRegistry::instance().counter("cache.probe.corrupt");
    static Counter &evictions =
        MetricsRegistry::instance().counter("cache.entry.evict");

    if (!enabled())
        return std::nullopt;

    TELEM_SPAN(span, "cache.probe");
    const std::string path = entryPath(key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        misses.add();
        span.tag("result", "miss");
        return std::nullopt;
    }
    // An injected read fault degrades exactly like a real one: the
    // probe is a miss (transient I/O error, entry kept) and the cell
    // recomputes.
    if (PP_FAILPOINT_FIRED("cache.load.read")) {
        static Counter &ioerrors =
            MetricsRegistry::instance().counter("cache.probe.ioerror");
        ioerrors.add();
        misses.add();
        span.tag("result", "ioerror");
        return std::nullopt;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

    SimResult out;
    if (!deserializeSimResult(bytes, &out) || !isConservingRun(out)) {
        corruptions.add();
        span.tag("result", "corrupt");
        // A corrupt entry used to be discarded silently; say where it
        // was once per process (further ones only count — a damaged
        // cache directory would otherwise spam one warning per cell).
        static std::once_flag warned;
        std::call_once(warned, [&]() {
            PP_WARN("result cache: corrupt entry '", path,
                    "' (recomputing and evicting; further corrupt "
                    "entries are counted under cache.probe.corrupt "
                    "without a warning)");
        });
        // Evict so the next run's probe is a clean miss rather than
        // another deserialization failure of the same bytes.
        std::error_code ec;
        if (std::filesystem::remove(path, ec) && !ec)
            evictions.add();
        return std::nullopt;
    }
    span.tag("result", "hit");
    return out;
}

bool
ResultCache::store(const CacheKey &key, const SimResult &result) const
{
    static Counter &stores =
        MetricsRegistry::instance().counter("cache.entry.store");
    static Counter &failures =
        MetricsRegistry::instance().counter("cache.entry.store_fail");

    if (!enabled())
        return false;

    TELEM_SPAN(span, "cache.store");
    // Unique temp name per process and store call so concurrent
    // writers never collide; rename within one directory is atomic.
    static std::atomic<std::uint64_t> counter{0};
    const std::string path = entryPath(key);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(counter.fetch_add(1));

    const std::vector<std::uint8_t> bytes = serializeSimResult(result);
    {
        std::FILE *out = PP_FAILPOINT_FIRED("cache.store.open")
                             ? nullptr
                             : std::fopen(tmp.c_str(), "wb");
        if (!out) {
            failures.add();
            return false;
        }
        bool ok = !PP_FAILPOINT_FIRED("cache.store.write") &&
                  std::fwrite(bytes.data(), 1, bytes.size(), out) ==
                      bytes.size();
        ok = ok && std::fflush(out) == 0;
        // Durability half of the atomic-rename contract: the payload
        // must be on stable storage before the name is, or a crash
        // right after the rename can leave a visible entry with
        // zero-length or torn contents.
        ok = ok && ::fsync(::fileno(out)) == 0;
        ok = std::fclose(out) == 0 && ok;
        if (!ok) {
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            failures.add();
            return false;
        }
    }

    std::error_code ec;
    if (PP_FAILPOINT_FIRED("cache.store.rename")) {
        std::filesystem::remove(tmp, ec);
        failures.add();
        return false;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        failures.add();
        return false;
    }
    stores.add();
    return true;
}

} // namespace pipedepth
