#include "trace/trace_io.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "common/logging.hh"

namespace pipedepth
{

namespace
{

constexpr char kMagic[4] = {'P', 'P', 'T', 'R'};
constexpr std::size_t kRecordBytes = 40;

/** FNV-1a over a byte buffer, continuing from @p hash. */
std::uint64_t
fnv1a(const unsigned char *data, std::size_t len, std::uint64_t hash)
{
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

void
packU64(unsigned char *buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
unpackU64(const unsigned char *buf)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    return v;
}

void
packRecord(unsigned char *buf, const TraceRecord &r)
{
    packU64(buf + 0, r.pc);
    packU64(buf + 8, r.mem_addr);
    packU64(buf + 16, r.target);
    buf[24] = static_cast<unsigned char>(r.op);
    buf[25] = r.dst;
    buf[26] = r.src1;
    buf[27] = r.src2;
    buf[28] = r.src3;
    buf[29] = r.taken ? 1 : 0;
    std::memset(buf + 30, 0, kRecordBytes - 30);
}

/** Record @p index of the tape at @p path (named in errors). */
TraceRecord
unpackRecord(const unsigned char *buf, std::uint64_t index,
             const std::string &path)
{
    TraceRecord r;
    r.pc = unpackU64(buf + 0);
    r.mem_addr = unpackU64(buf + 8);
    r.target = unpackU64(buf + 16);
    const auto op = buf[24];
    if (op >= kNumOpClasses)
        PP_FATAL("trace record has invalid op class ", int(op));
    r.op = static_cast<OpClass>(op);
    // The walk indexes kNumRegs-entry arrays with these fields.
    const auto reg = [&](std::size_t offset, const char *field) {
        const std::uint8_t v = buf[offset];
        if (v >= kNumRegs && v != kNoReg) {
            PP_FATAL("trace record ", index, " has invalid ", field,
                     " register ", int(v), ": ", path);
        }
        return v;
    };
    r.dst = reg(25, "dst");
    r.src1 = reg(26, "src1");
    r.src2 = reg(27, "src2");
    r.src3 = reg(28, "src3");
    r.taken = buf[29] != 0;
    return r;
}

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

void
writeTrace(const Trace &trace, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        PP_FATAL("cannot open trace file for writing: ", path);

    auto put = [&](const void *data, std::size_t len) {
        if (std::fwrite(data, 1, len, f.get()) != len)
            PP_FATAL("short write to trace file: ", path);
    };

    unsigned char hdr[4 + 4 + 8 + 8 + 4];
    std::memcpy(hdr, kMagic, 4);
    hdr[4] = kTraceFormatVersion & 0xff;
    hdr[5] = (kTraceFormatVersion >> 8) & 0xff;
    hdr[6] = (kTraceFormatVersion >> 16) & 0xff;
    hdr[7] = (kTraceFormatVersion >> 24) & 0xff;
    packU64(hdr + 8, trace.seed);
    packU64(hdr + 16, trace.records.size());
    const std::uint32_t nlen =
        static_cast<std::uint32_t>(trace.name.size());
    hdr[24] = nlen & 0xff;
    hdr[25] = (nlen >> 8) & 0xff;
    hdr[26] = (nlen >> 16) & 0xff;
    hdr[27] = (nlen >> 24) & 0xff;
    put(hdr, sizeof(hdr));
    put(trace.name.data(), trace.name.size());

    std::uint64_t hash = kFnvOffset;
    unsigned char buf[kRecordBytes];
    for (const auto &r : trace.records) {
        packRecord(buf, r);
        hash = fnv1a(buf, kRecordBytes, hash);
        put(buf, kRecordBytes);
    }

    unsigned char tail[8];
    packU64(tail, hash);
    put(tail, 8);
}

Trace
readTrace(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        PP_FATAL("cannot open trace file: ", path);

    auto get = [&](void *data, std::size_t len) {
        if (std::fread(data, 1, len, f.get()) != len)
            PP_FATAL("truncated trace file: ", path);
    };

    unsigned char hdr[4 + 4 + 8 + 8 + 4];
    get(hdr, sizeof(hdr));
    if (std::memcmp(hdr, kMagic, 4) != 0)
        PP_FATAL("not a trace file (bad magic): ", path);
    const std::uint32_t version = hdr[4] | (hdr[5] << 8) | (hdr[6] << 16) |
                                  (static_cast<std::uint32_t>(hdr[7]) << 24);
    if (version != kTraceFormatVersion)
        PP_FATAL("trace format version ", version, " unsupported (want ",
                 kTraceFormatVersion, "): ", path);

    Trace trace;
    trace.seed = unpackU64(hdr + 8);
    const std::uint64_t count = unpackU64(hdr + 16);
    const std::uint32_t nlen = hdr[24] | (hdr[25] << 8) | (hdr[26] << 16) |
                               (static_cast<std::uint32_t>(hdr[27]) << 24);
    if (nlen > 4096)
        PP_FATAL("implausible workload name length in trace: ", path);
    trace.name.resize(nlen);
    if (nlen)
        get(trace.name.data(), nlen);

    // Bound the header's count by what the file can hold (header,
    // name, records, checksum) before reserving for it: a corrupt
    // count must fail as a truncated tape, not as a failed
    // allocation. A stream of unknown size reserves nothing and
    // stops at its end.
    std::error_code size_error;
    const std::uintmax_t size = std::filesystem::file_size(path, size_error);
    if (!size_error) {
        const std::uintmax_t fixed = sizeof(hdr) + nlen + 8;
        const std::uintmax_t room =
            size > fixed ? (size - fixed) / kRecordBytes : 0;
        if (count > room)
            PP_FATAL("truncated trace file: header claims ", count,
                     " records, room for ", room, ": ", path);
        trace.records.reserve(count);
    }
    std::uint64_t hash = kFnvOffset;
    unsigned char buf[kRecordBytes];
    for (std::uint64_t i = 0; i < count; ++i) {
        get(buf, kRecordBytes);
        hash = fnv1a(buf, kRecordBytes, hash);
        trace.records.push_back(unpackRecord(buf, i, path));
    }

    unsigned char tail[8];
    get(tail, 8);
    if (unpackU64(tail) != hash)
        PP_FATAL("trace checksum mismatch (corrupted tape): ", path);
    return trace;
}

} // namespace pipedepth
