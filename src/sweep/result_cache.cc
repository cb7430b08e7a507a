#include "sweep/result_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/logging.hh"
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

namespace
{

/** deserializeSimResult over @p size bytes at @p data. */
bool
decodeEntry(const std::uint8_t *data, std::size_t size, SimResult *out)
{
    if (size < kHeaderSize)
        return false;
    if (std::memcmp(data, kMagic, 4) != 0)
        return false;
    Reader header(data + 4, kHeaderSize - 4);
    if (header.u32() != kFormatVersion)
        return false;
    const std::uint64_t payload_size = header.u64();
    const std::uint64_t checksum = header.u64();
    if (size != kHeaderSize + payload_size)
        return false;
    if (fnv1a(data + kHeaderSize, payload_size) != checksum)
        return false;

    Reader r(data + kHeaderSize, payload_size);
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

/** Bytes of one log frame: the cell key, the entry, the checksum. */
std::size_t
frameSize()
{
    static const std::size_t size =
        16 + serializeSimResult(SimResult{}).size() + 8;
    return size;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** A file descriptor closed when it goes out of scope. */
class Fd
{
  public:
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }

  private:
    int fd_;
};

enum class FileRead
{
    Absent,  //!< no such file (or it cannot be opened)
    IoError, //!< opened, but reading failed
    Read,    //!< @p bytes holds the file
};

/**
 * Read the file at @p path with the size it has now: an append that
 * lands meanwhile is the next read's. An I/O error, or an injected
 * one (`cache.load.read`), leaves @p bytes empty.
 */
FileRead
readFile(const std::string &path, std::vector<std::uint8_t> &bytes)
{
    const Fd in(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (in.get() < 0)
        return FileRead::Absent;
    struct stat st{};
    if (PP_FAILPOINT_FIRED("cache.load.read") || ::fstat(in.get(), &st) != 0)
        return FileRead::IoError;
    bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t n =
            ::read(in.get(), bytes.data() + got, bytes.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            bytes.clear();
            return FileRead::IoError;
        }
        if (n == 0)
            break; // truncated meanwhile
        got += static_cast<std::size_t>(n);
    }
    bytes.resize(got);
    return FileRead::Read;
}

} // namespace

bool
deserializeSimResult(const std::vector<std::uint8_t> &bytes, SimResult *out)
{
    return decodeEntry(bytes.data(), bytes.size(), out);
}

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
    }
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
ResultCache::logPath(const CacheKey &log) const
{
    return dir_ + "/" + log.hex() + ".simlog";
}

std::vector<CachedCell>
ResultCache::read(const CacheKey &log,
                  const std::vector<CacheKey> &wanted) const
{
    static Counter &misses =
        MetricsRegistry::instance().counter("cache.probe.miss");
    static Counter &ioerrors =
        MetricsRegistry::instance().counter("cache.probe.ioerror");
    static Counter &corruptions =
        MetricsRegistry::instance().counter("cache.probe.corrupt");

    if (!enabled())
        return {};

    TELEM_SPAN(span, "cache.probe");
    const std::string path = logPath(log);
    std::vector<std::uint8_t> bytes;
    const FileRead status = readFile(path, bytes);
    const std::size_t frame = frameSize();
    span.tag("frames", static_cast<std::uint64_t>(bytes.size() / frame));
    if (status != FileRead::Read) {
        if (status == FileRead::IoError)
            ioerrors.add();
        misses.add();
        return {};
    }

    // Does a checksum-clean frame start at @p at? The entry magic at
    // frame offset 16 rules out almost every misaligned offset before
    // the checksum is computed.
    auto framed = [&](std::size_t at) {
        const std::uint8_t *f = bytes.data() + at;
        return std::memcmp(f + 16, kMagic, sizeof(kMagic)) == 0 &&
               fnv1a(f, frame - 8) == getU64(f + frame - 8);
    };

    // Every frame must be a cell's conserving run. Damaged bytes (a
    // flipped bit, or a torn append that later appends landed behind)
    // cost only themselves: reading resumes at the next offset where a
    // checksum-clean frame starts. A tail shorter than one frame is an
    // append in progress, or one a kill cut short, and is skipped.
    std::vector<CachedCell> cells;
    std::vector<std::size_t> damage; //!< offset of each damaged region
    for (std::size_t at = 0; at + frame <= bytes.size(); at += frame) {
        if (!framed(at)) {
            damage.push_back(at);
            do {
                ++at;
            } while (at + frame <= bytes.size() && !framed(at));
            if (at + frame > bytes.size())
                break;
        }
        const std::uint8_t *f = bytes.data() + at;
        CachedCell cell{{getU64(f), getU64(f + 8)}, {}};
        if (!decodeEntry(f + 16, frame - 24, &cell.result) ||
            !isConservingRun(cell.result)) {
            damage.push_back(at);
            continue;
        }
        // The last frame of a key wins: it is the latest walk's.
        const auto same = std::find_if(
            cells.begin(), cells.end(),
            [&](const CachedCell &c) { return c.key == cell.key; });
        if (same != cells.end())
            same->result = std::move(cell.result);
        else
            cells.push_back(std::move(cell));
    }

    // Only damage that may have cost an asked-for cell is news; say
    // where the process's first was (further damage only counts: a
    // damaged cache directory would otherwise spam a warning per
    // read).
    const auto served = [&](const CacheKey &key) {
        return std::any_of(cells.begin(), cells.end(),
                           [&](const CachedCell &c) { return c.key == key; });
    };
    if (!damage.empty() &&
        (wanted.empty() || !std::all_of(wanted.begin(), wanted.end(),
                                        served))) {
        corruptions.add(damage.size());
        static std::once_flag warned;
        std::call_once(warned, [&]() {
            PP_WARN("result cache: damaged bytes at offset ",
                    damage.front(), " in '", path,
                    "' (skipped to the next intact frame; a cell left "
                    "without an intact frame is walked again, and "
                    "further damage is counted under "
                    "cache.probe.corrupt without a warning)");
        });
    }
    return cells;
}

bool
ResultCache::append(const CacheKey &log,
                    const std::vector<CachedCell> &cells) const
{
    static Counter &stores =
        MetricsRegistry::instance().counter("cache.entry.store");
    static Counter &failures =
        MetricsRegistry::instance().counter("cache.entry.store_fail");

    if (!enabled())
        return false;

    TELEM_SPAN(span, "cache.store");
    std::vector<std::uint8_t> bytes;
    bytes.reserve(cells.size() * frameSize());
    for (const CachedCell &cell : cells) {
        const std::size_t begin = bytes.size();
        putU64(bytes, cell.key.hi);
        putU64(bytes, cell.key.lo);
        const std::vector<std::uint8_t> entry =
            serializeSimResult(cell.result);
        bytes.insert(bytes.end(), entry.begin(), entry.end());
        putU64(bytes, fnv1a(bytes.data() + begin, bytes.size() - begin));
    }
    if (!cells.empty())
        span.tag("workload", cells.front().result.workload);
    span.tag("frames", static_cast<std::uint64_t>(cells.size()));
    span.tag("bytes", static_cast<std::uint64_t>(bytes.size()));

    const std::string path = logPath(log);
    const Fd out(PP_FAILPOINT_FIRED("cache.store.open")
                     ? -1
                     : ::open(path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                              0644));
    // One write(2) call: O_APPEND makes it one atomic append on a local
    // filesystem, where a buffered stream could split it into writes
    // that interleave with another appender's. A short write leaves a
    // torn tail: readers skip it, and once a later append lands behind
    // it, resume reading at that append's first frame.
    ssize_t written = -1;
    if (out.get() >= 0 && !PP_FAILPOINT_FIRED("cache.store.write")) {
        do {
            written = ::write(out.get(), bytes.data(), bytes.size());
        } while (written < 0 && errno == EINTR);
    }
    // The frames are durable before the store reports success. If the
    // fsync fails they may still be served from the page cache; a later
    // power loss then damages them, and the reader skips what it
    // damaged.
    if (written != static_cast<ssize_t>(bytes.size()) ||
        ::fsync(out.get()) != 0) {
        failures.add(cells.size());
        return false;
    }
    stores.add(cells.size());
    return true;
}

std::optional<SimResult>
ResultCache::load(const CacheKey &key) const
{
    for (CachedCell &cell : read(key, {key})) {
        if (cell.key == key)
            return std::move(cell.result);
    }
    return std::nullopt;
}

bool
ResultCache::store(const CacheKey &key, const SimResult &result) const
{
    return append(key, {CachedCell{key, result}});
}

} // namespace pipedepth
