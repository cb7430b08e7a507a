/**
 * @file
 * Tests for the binary trace-tape format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "trace/generator.hh"
#include "trace/trace_io.hh"

namespace pipedepth
{
namespace
{

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("pipedepth_trace_test_" +
                std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

Trace
sampleTrace(std::size_t n = 500)
{
    TraceGenParams params;
    params.seed = 1234;
    params.length = n;
    params.frac_fp = 0.1;
    return generateTrace(params, "sample");
}

TEST_F(TraceIoTest, RoundTripPreservesEverything)
{
    const Trace original = sampleTrace();
    writeTrace(original, path("t.pptr"));
    const Trace loaded = readTrace(path("t.pptr"));

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.seed, original.seed);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const TraceRecord &a = original[i];
        const TraceRecord &b = loaded[i];
        ASSERT_EQ(a.pc, b.pc) << i;
        ASSERT_EQ(a.mem_addr, b.mem_addr) << i;
        ASSERT_EQ(a.target, b.target) << i;
        ASSERT_EQ(a.op, b.op) << i;
        ASSERT_EQ(a.dst, b.dst) << i;
        ASSERT_EQ(a.src1, b.src1) << i;
        ASSERT_EQ(a.src2, b.src2) << i;
        ASSERT_EQ(a.src3, b.src3) << i;
        ASSERT_EQ(a.taken, b.taken) << i;
    }
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips)
{
    Trace t;
    t.name = "empty";
    t.seed = 7;
    writeTrace(t, path("e.pptr"));
    const Trace loaded = readTrace(path("e.pptr"));
    EXPECT_EQ(loaded.name, "empty");
    EXPECT_TRUE(loaded.empty());
}

TEST_F(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_EXIT(readTrace(path("nope.pptr")),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST_F(TraceIoTest, BadMagicIsFatal)
{
    {
        std::ofstream f(path("junk.pptr"), std::ios::binary);
        f << "this is not a trace tape at all, not even close";
    }
    EXPECT_EXIT(readTrace(path("junk.pptr")),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST_F(TraceIoTest, TruncationIsFatal)
{
    writeTrace(sampleTrace(), path("t.pptr"));
    const auto full = std::filesystem::file_size(path("t.pptr"));
    std::filesystem::resize_file(path("t.pptr"), full - 16);
    EXPECT_EXIT(readTrace(path("t.pptr")),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST_F(TraceIoTest, CorruptionIsFatal)
{
    writeTrace(sampleTrace(), path("t.pptr"));
    // Flip a byte in the middle of the record area.
    std::fstream f(path("t.pptr"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(200);
    char c;
    f.seekg(200);
    f.get(c);
    f.seekp(200);
    f.put(static_cast<char>(c ^ 0x5a));
    f.close();
    EXPECT_EXIT(readTrace(path("t.pptr")),
                ::testing::ExitedWithCode(1), "checksum");
}

TEST_F(TraceIoTest, OutOfRangeRegisterIsFatal)
{
    // writeTrace computes the checksum, so only the decoder's range
    // check stands between these tapes and the walk's kNumRegs-entry
    // register arrays.
    const std::pair<const char *, std::uint8_t TraceRecord::*> fields[] = {
        {"dst", &TraceRecord::dst},
        {"src1", &TraceRecord::src1},
        {"src2", &TraceRecord::src2},
        {"src3", &TraceRecord::src3}};
    for (const auto &[name, field] : fields) {
        Trace t = sampleTrace();
        t.records[7].*field = kNumRegs;
        writeTrace(t, path("bad.pptr"));
        EXPECT_EXIT(readTrace(path("bad.pptr")),
                    ::testing::ExitedWithCode(1),
                    std::string("trace record 7 has invalid ") + name +
                        " register 32")
            << name;
    }
}

TEST_F(TraceIoTest, OversizedRecordCountIsFatal)
{
    // A bare 28-byte header (no name, no records, no checksum) whose
    // count no file of that size can hold: the reader must reject it
    // before allocating for it.
    for (const std::uint64_t count :
         {std::uint64_t{1} << 31, std::uint64_t{1} << 60}) {
        unsigned char hdr[28] = {'P', 'P', 'T', 'R'};
        for (int i = 0; i < 4; ++i)
            hdr[4 + i] = static_cast<unsigned char>(
                kTraceFormatVersion >> (8 * i));
        for (int i = 0; i < 8; ++i)
            hdr[16 + i] = static_cast<unsigned char>(count >> (8 * i));
        {
            std::ofstream f(path("huge.pptr"), std::ios::binary);
            f.write(reinterpret_cast<const char *>(hdr), sizeof(hdr));
        }
        EXPECT_EXIT(readTrace(path("huge.pptr")),
                    ::testing::ExitedWithCode(1),
                    "claims " + std::to_string(count) + " records")
            << count;
    }
}

} // namespace
} // namespace pipedepth
