/**
 * @file
 * Tests for SimResult serialization and the on-disk result cache:
 * exact round trips, the one-cell store/load, the per-trace log
 * (one file, the last frame of a key served, a short tail skipped,
 * concurrent appenders losing no frame) and — critically — silent
 * tolerance of bit-flipped, torn, mislabeled or non-conserving frames
 * (damaged bytes must cost only their own cells, read as misses,
 * never crash or return garbage).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "power/activity_power.hh"
#include "sweep/cache_key.hh"
#include "sweep/depth_sweep.hh"
#include "support/cached_cells.hh"
#include "support/metric_deltas.hh"
#include "sweep/result_cache.hh"
#include "trace/trace_io.hh"

namespace pipedepth
{
namespace
{

/** A SimResult with a distinctive value in every field. */
SimResult
sampleResult()
{
    SimResult r;
    r.workload = "unit-test";
    r.depth = 17;
    r.cycle_time_fo4 = 2.5 + 140.0 / 17.0;
    r.instructions = 123456;
    r.cycles = 234567;
    r.branches = 34567;
    r.mispredicts = 4567;
    r.icache_accesses = 111111;
    r.icache_misses = 2222;
    r.dcache_accesses = 55555;
    r.dcache_misses = 3333;
    r.l2_accesses = 4444;
    r.l2_misses = 555;
    r.mispredict_events = 4321;
    r.load_interlock_events = 6543;
    r.fp_interlock_events = 321;
    r.int_interlock_events = 7654;
    r.dcache_miss_events = 2468;
    r.mispredict_stall_cycles = 13579;
    r.icache_stall_cycles = 8642;
    r.dcache_stall_cycles = 9753;
    r.load_interlock_stall_cycles = 1357;
    r.fp_interlock_stall_cycles = 246;
    r.int_interlock_stall_cycles = 8888;
    r.unit_busy_stall_cycles = 999;
    r.other_stall_cycles = 1234;
    r.base_work_cycles = 30864;
    r.superscalar_loss_cycles = 171717;
    r.drain_cycles = 21;
    r.ledger_residual = -7;
    for (std::size_t u = 0; u < kNumUnits; ++u) {
        r.units[u].depth = static_cast<int>(u + 1);
        r.units[u].active_cycles = 1000 * u + 1;
        r.units[u].occupancy = 2000 * u + 2;
        r.units[u].ops = 3000 * u + 3;
    }
    r.config = PipelineConfig::forDepth(17);
    return r;
}

/**
 * sampleResult() as a run can leave it: a zero residual and ledger
 * buckets summing to the cycles. The cache refuses anything else.
 */
SimResult
conservingResult()
{
    SimResult r = sampleResult();
    r.ledger_residual = 0;
    r.cycles = r.ledgerTotal();
    return r;
}

/** Field-by-field equality of the serialized (measured) state. */
void
expectMeasurementsEqual(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(serializeSimResult(a), serializeSimResult(b));
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_DOUBLE_EQ(a.cycle_time_fo4, b.cycle_time_fo4);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.unit_busy_stall_cycles, b.unit_busy_stall_cycles);
    EXPECT_EQ(a.base_work_cycles, b.base_work_cycles);
    EXPECT_EQ(a.superscalar_loss_cycles, b.superscalar_loss_cycles);
    EXPECT_EQ(a.drain_cycles, b.drain_cycles);
    EXPECT_EQ(a.ledger_residual, b.ledger_residual);
    for (std::size_t u = 0; u < kNumUnits; ++u) {
        EXPECT_EQ(a.units[u].active_cycles, b.units[u].active_cycles);
        EXPECT_EQ(a.units[u].ops, b.units[u].ops);
    }
}

/** Fresh private cache directory per test. */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("pipedepth-cache-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST(SimResultSerialization, RoundTripsExactly)
{
    const SimResult original = sampleResult();
    const auto bytes = serializeSimResult(original);
    SimResult restored;
    ASSERT_TRUE(deserializeSimResult(bytes, &restored));
    expectMeasurementsEqual(original, restored);
}

TEST(SimResultSerialization, RejectsTruncation)
{
    const auto bytes = serializeSimResult(sampleResult());
    SimResult out;
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{23},
          bytes.size() / 2, bytes.size() - 1}) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() +
                                          static_cast<std::ptrdiff_t>(keep));
        EXPECT_FALSE(deserializeSimResult(cut, &out)) << keep << " bytes";
    }
}

TEST(SimResultSerialization, RejectsTrailingGarbage)
{
    auto bytes = serializeSimResult(sampleResult());
    bytes.push_back(0);
    SimResult out;
    EXPECT_FALSE(deserializeSimResult(bytes, &out));
}

TEST(SimResultSerialization, RejectsAnySingleBitFlip)
{
    const auto pristine = serializeSimResult(sampleResult());
    SimResult out;
    // Every byte of the entry is protected: header fields break the
    // framing, payload bytes break the checksum.
    for (std::size_t i = 0; i < pristine.size(); ++i) {
        auto bytes = pristine;
        bytes[i] ^= 0x10;
        EXPECT_FALSE(deserializeSimResult(bytes, &out)) << "byte " << i;
    }
}

TEST_F(ResultCacheTest, StoreThenLoadRoundTrips)
{
    const ResultCache cache(dir_.string());
    ASSERT_TRUE(cache.enabled());
    const SimResult original = conservingResult();
    const CacheKey key =
        traceCellKey(Trace{"t", 1, {}}, original.config);

    EXPECT_TRUE(cache.store(key, original));
    const MetricDeltas tally;
    const auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u);
    expectMeasurementsEqual(original, *loaded);
}

TEST_F(ResultCacheTest, MissingEntryIsCleanMiss)
{
    const ResultCache cache(dir_.string());
    const MetricDeltas tally;
    EXPECT_FALSE(cache.load(CacheKey{1, 2}).has_value());
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u);
    EXPECT_EQ(tally["cache.probe.miss"], 1u);
}

/** Three distinct conserving cells under keys {1, k}. */
std::vector<CachedCell>
threeCells()
{
    std::vector<CachedCell> cells;
    for (std::uint64_t k = 1; k <= 3; ++k) {
        SimResult r = conservingResult();
        r.depth = static_cast<int>(k);
        cells.push_back({{1, k}, r});
    }
    return cells;
}

std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ResultCacheTest, TruncatedLogServesCompleteFrames)
{
    // A tail shorter than one frame is an append in progress, or one
    // a kill cut short: skipped, never corrupt. An append that lands
    // behind it is out of step with the frames before it; the reader
    // skips the torn bytes to its first frame, so the tear costs only
    // its own cell.
    const ResultCache cache(dir_.string());
    const CacheKey log{0xdead, 0xbeef};
    const std::vector<CachedCell> cells = threeCells();
    ASSERT_TRUE(cache.append(log, cells));
    const std::string path = cache.logPath(log);
    const std::uintmax_t frame = std::filesystem::file_size(path) / 3;

    std::filesystem::resize_file(path, 2 * frame + frame / 2);
    const MetricDeltas tally;
    const std::vector<CachedCell> read = cache.read(log);
    ASSERT_EQ(read.size(), 2u);
    for (std::size_t i = 0; i < read.size(); ++i) {
        EXPECT_EQ(read[i].key, cells[i].key);
        expectMeasurementsEqual(read[i].result, cells[i].result);
    }
    std::filesystem::resize_file(path, frame - 1);
    EXPECT_TRUE(cache.read(log).empty());
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u);
    EXPECT_TRUE(std::filesystem::exists(path));

    ASSERT_TRUE(cache.append(log, cells));
    const std::vector<CachedCell> behind = cache.read(log);
    ASSERT_EQ(behind.size(), 3u);
    for (std::size_t i = 0; i < behind.size(); ++i) {
        EXPECT_EQ(behind[i].key, cells[i].key);
        expectMeasurementsEqual(behind[i].result, cells[i].result);
    }
    EXPECT_EQ(tally["cache.probe.corrupt"], 1u);
}

TEST_F(ResultCacheTest, DamagedFrameCostsOnlyItself)
{
    // Every byte of a complete frame is protected, its key included:
    // one flipped bit anywhere costs that frame, and the frames on
    // either side are still served.
    const ResultCache cache(dir_.string());
    const CacheKey log{0xfeed, 0xbeef};
    const std::vector<CachedCell> cells = threeCells();
    ASSERT_TRUE(cache.append(log, cells));
    const std::string path = cache.logPath(log);
    const std::vector<std::uint8_t> pristine = fileBytes(path);
    const std::size_t frame = pristine.size() / 3;
    for (std::size_t i = frame; i < 2 * frame; ++i) {
        std::vector<std::uint8_t> bytes = pristine;
        bytes[i] ^= 0x08;
        writeBytes(path, bytes);
        const MetricDeltas tally;
        const std::vector<CachedCell> read = cache.read(log);
        ASSERT_EQ(read.size(), 2u) << "byte " << i;
        EXPECT_EQ(read[0].key, cells[0].key) << "byte " << i;
        EXPECT_EQ(read[1].key, cells[2].key) << "byte " << i;
        EXPECT_EQ(tally["cache.probe.corrupt"], 1u) << "byte " << i;
        EXPECT_EQ(fileBytes(path), bytes) << "byte " << i;
    }
}

TEST_F(ResultCacheTest, LastFrameOfAKeyIsServed)
{
    const ResultCache cache(dir_.string());
    const CacheKey key{0xabc, 0xdef};
    SimResult first = conservingResult();
    SimResult second = conservingResult();
    second.depth = first.depth + 1;
    ASSERT_TRUE(cache.store(key, first));
    ASSERT_TRUE(cache.store(key, second));
    const std::vector<CachedCell> read = cache.read(key);
    ASSERT_EQ(read.size(), 1u);
    expectMeasurementsEqual(read[0].result, second);
}

TEST_F(ResultCacheTest, ForkedAppendersLoseNoFrame)
{
    // Two processes append groups of frames to one log at once: each
    // append is one write(2) on an O_APPEND descriptor, so no frame is
    // lost or torn.
    const std::string dir = dir_.string();
    const CacheKey log{0x5eed, 0x10c};
    constexpr std::uint64_t kAppends = 40;
    constexpr std::uint64_t kFrames = 6;
    std::vector<pid_t> children;
    for (std::uint64_t writer = 0; writer < 2; ++writer) {
        const pid_t pid = ::fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            const ResultCache cache(dir);
            bool ok = true;
            for (std::uint64_t a = 0; a < kAppends; ++a) {
                std::vector<CachedCell> cells;
                for (std::uint64_t f = 0; f < kFrames; ++f) {
                    cells.push_back({{writer, a * kFrames + f},
                                     conservingResult()});
                }
                ok = cache.append(log, cells) && ok;
            }
            ::_exit(ok ? 0 : 1);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    const ResultCache cache(dir);
    const MetricDeltas tally;
    std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
    for (const CachedCell &cell : cache.read(log))
        keys.insert({cell.key.hi, cell.key.lo});
    EXPECT_EQ(keys.size(), 2 * kAppends * kFrames);
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u);
}

TEST_F(ResultCacheTest, BitFlippedEntryReadsAsCorruptMiss)
{
    const ResultCache cache(dir_.string());
    const SimResult original = conservingResult();
    const CacheKey key{0xfeed, 0xface};
    ASSERT_TRUE(cache.store(key, original));

    // Flip one payload bit on disk.
    const std::string path = cache.logPath(key);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(100);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(100);
    f.write(&byte, 1);
    f.close();

    const MetricDeltas tally;
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(tally["cache.probe.corrupt"], 1u);

    // Storing again repairs the entry. The damaged frame stays in the
    // log and is counted on each read.
    EXPECT_TRUE(cache.store(key, original));
    EXPECT_TRUE(cache.load(key).has_value());
    EXPECT_EQ(tally["cache.probe.corrupt"], 2u);
}

TEST_F(ResultCacheTest, NonConservingEntryReadsAsCorruptMiss)
{
    // Checksum-clean entries that no run leaves. Each would abort the
    // reports that read it (calibration asserts a conserving run), so
    // it is skipped as one frame: the frames around it are served.
    const ResultCache cache(dir_.string());
    const CacheKey log{0xc0de, 0xcafe};
    const CacheKey key{1, 2};
    const SimResult good = conservingResult();
    std::vector<SimResult> bad(6, good);
    bad[0].ledger_residual = 1;
    bad[1].other_stall_cycles += 1;
    bad[2].instructions = 0;
    bad[3].cycles = 0;
    // Buckets whose sum wraps around 2^64 to the cycles.
    bad[4].base_work_cycles += std::uint64_t{1} << 63;
    bad[4].superscalar_loss_cycles += std::uint64_t{1} << 63;
    ASSERT_EQ(bad[4].ledgerTotal(), bad[4].cycles);
    // Every cycle a stall: no instruction ever retired.
    bad[5].mispredict_stall_cycles += bad[5].base_work_cycles;
    bad[5].base_work_cycles = 0;
    for (std::size_t i = 0; i < bad.size(); ++i) {
        std::filesystem::remove(cache.logPath(log));
        ASSERT_TRUE(cache.append(
            log, {{{1, 1}, good}, {key, bad[i]}, {{1, 3}, good}}));
        const MetricDeltas tally;
        const std::vector<CachedCell> read = cache.read(log);
        ASSERT_EQ(read.size(), 2u) << i;
        EXPECT_EQ(read[0].key, (CacheKey{1, 1})) << i;
        EXPECT_EQ(read[1].key, (CacheKey{1, 3})) << i;
        EXPECT_EQ(tally["cache.probe.corrupt"], 1u) << i;
    }
}

TEST_F(ResultCacheTest, StoreLeavesNoTempFiles)
{
    // Appends write their logs in place: the directory holds one
    // `.simlog` per log and nothing else.
    const ResultCache cache(dir_.string());
    ASSERT_TRUE(cache.store(CacheKey{1, 1}, conservingResult()));
    ASSERT_TRUE(cache.store(CacheKey{2, 2}, conservingResult()));
    ASSERT_TRUE(cache.append(CacheKey{3, 3}, threeCells()));
    std::size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir_)) {
        ++files;
        EXPECT_EQ(entry.path().extension(), ".simlog") << entry.path();
    }
    EXPECT_EQ(files, 3u);
    EXPECT_EQ(cachedCellCount(dir_), 5u);
}

TEST(ResultCacheDisabled, DisabledCacheMissesAndDropsStores)
{
    const ResultCache cache;
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.store(CacheKey{1, 1}, conservingResult()));
    const MetricDeltas tally;
    EXPECT_FALSE(cache.load(CacheKey{1, 1}).has_value());
    // A disabled cache probes nothing: no miss, no corrupt entry.
    EXPECT_EQ(tally["cache.probe.miss"], 0u);
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u);
}

TEST(CacheKeyHex, StableAndDistinct)
{
    const CacheKey a{0x0123456789abcdefull, 0xfedcba9876543210ull};
    EXPECT_EQ(a.hex(), "0123456789abcdeffedcba9876543210");
    EXPECT_EQ(CacheKey{}.hex(), std::string(32, '0'));

    // Distinct configs / specs / traces produce distinct keys.
    const WorkloadSpec &spec = workloadCatalog().front();
    const auto base = simCellKey(spec, 1000, PipelineConfig::forDepth(8));
    EXPECT_NE(base, simCellKey(spec, 1001, PipelineConfig::forDepth(8)));
    EXPECT_NE(base, simCellKey(spec, 1000, PipelineConfig::forDepth(9)));
    WorkloadSpec other = spec;
    other.gen.seed ^= 1;
    EXPECT_NE(base, simCellKey(other, 1000, PipelineConfig::forDepth(8)));

    PipelineConfig warm = PipelineConfig::forDepth(8);
    warm.warmup_instructions = 777;
    EXPECT_NE(base, simCellKey(spec, 1000, warm));
}

TEST(CacheKeyHex, SimCellKeyPinned)
{
    // A catalog cell's address. It must never move without a bump of
    // kSimulatorVersionTag: caches written earlier serve it.
    SweepOptions options;
    options.trace_length = 30000;
    options.warmup_instructions = 10000;
    EXPECT_EQ(simCellKey(findWorkload("gcc95"), 30000,
                         options.configAtDepth(8))
                  .hex(),
              "aa0e24be3f42e502ac491f77cbb25c92");
    // Its trace's hasher state, with the config appended, is the cell.
    EXPECT_EQ(cellKey(specCellHasher(findWorkload("gcc95"), 30000),
                      options.configAtDepth(8))
                  .hex(),
              "aa0e24be3f42e502ac491f77cbb25c92");
}

TEST(CacheKeyHex, EveryForDepthConfigPinned)
{
    // Every configuration forDepth can return, folded twice: its key
    // bytes, which must not move without a bump of
    // kSimulatorVersionTag, and its latch count, which every power
    // figure scales.
    StableHasher keys;
    StableHasher latches;
    const ActivityPowerModel model(UnitPowerFactors::defaults(), 1.0, 0.0);
    std::size_t configs = 0;
    for (ExpansionPolicy policy :
         {ExpansionPolicy::Uniform, ExpansionPolicy::DecodeHeavy,
          ExpansionPolicy::CacheHeavy, ExpansionPolicy::ExecHeavy}) {
        for (bool in_order : {true, false}) {
            for (int p = in_order ? 2 : 3; p <= 30; ++p) {
                const PipelineConfig config =
                    PipelineConfig::forDepth(p, in_order, policy);
                hashPipelineConfig(keys, config);
                latches.f64(model.latchCount(config));
                ++configs;
            }
        }
    }
    EXPECT_EQ(configs, 228u);
    EXPECT_EQ(keys.key().hex(), "6dda9a648476cf4528c8cf22bf9280d5");
    EXPECT_EQ(latches.key().hex(), "a7f2a39629722993c3d2af70e7f58be3");
}

/** One record with every field set and its padding bytes dirty. */
TraceRecord
handRecord(std::uint64_t pc, OpClass op, bool taken)
{
    TraceRecord r;
    std::memset(static_cast<void *>(&r), 0xa5, sizeof(r));
    r.pc = pc;
    r.mem_addr = pc * 3 + 0x10000000;
    r.op = op;
    r.dst = 1;
    r.src1 = 2;
    r.src2 = 3;
    r.src3 = 4;
    r.taken = taken;
    r.target = pc + 0x40;
    return r;
}

/** A hand-built 3-record trace. */
Trace
handTrace()
{
    Trace t;
    t.name = "hand";
    t.seed = 7;
    t.records = {handRecord(0x400000, OpClass::Load, false),
                 handRecord(0x400004, OpClass::IntAlu, false),
                 handRecord(0x400008, OpClass::BranchCond, true)};
    return t;
}

TEST(TraceCellKey, HandBuiltTracePinned)
{
    const Trace t = handTrace();
    const PipelineConfig config = PipelineConfig::forDepth(8);
    EXPECT_EQ(traceCellKey(t, config).hex(),
              "6bf218b16dbd13e01dd783e022ff2a70");
    StableHasher h = traceCellHasher(t);
    hashPipelineConfig(h, config);
    EXPECT_EQ(h.key(), traceCellKey(t, config));
}

TEST(TraceCellKey, EveryFieldOrderNameSeedAndCountMoveTheKey)
{
    const PipelineConfig config = PipelineConfig::forDepth(8);
    const CacheKey base = traceCellKey(handTrace(), config);
    auto keyAfter = [&](auto &&edit) {
        Trace t = handTrace();
        edit(t);
        return traceCellKey(t, config);
    };
    std::set<std::string> keys{base.hex()};
    auto expectMoved = [&](const char *what, const CacheKey &key) {
        EXPECT_NE(key, base) << what;
        EXPECT_TRUE(keys.insert(key.hex()).second) << what;
    };
    expectMoved("pc", keyAfter([](Trace &t) { t.records[1].pc ^= 4; }));
    expectMoved("mem_addr",
                keyAfter([](Trace &t) { t.records[1].mem_addr ^= 8; }));
    expectMoved("op", keyAfter([](Trace &t) {
                    t.records[1].op = OpClass::IntMul;
                }));
    expectMoved("dst",
                keyAfter([](Trace &t) { t.records[1].dst = kNoReg; }));
    expectMoved("src1", keyAfter([](Trace &t) { t.records[1].src1 = 9; }));
    expectMoved("src2", keyAfter([](Trace &t) { t.records[1].src2 = 9; }));
    expectMoved("src3", keyAfter([](Trace &t) { t.records[1].src3 = 9; }));
    expectMoved("taken",
                keyAfter([](Trace &t) { t.records[1].taken = true; }));
    expectMoved("target",
                keyAfter([](Trace &t) { t.records[1].target ^= 1; }));
    expectMoved("order", keyAfter([](Trace &t) {
                    std::swap(t.records[0], t.records[1]);
                }));
    expectMoved("name", keyAfter([](Trace &t) { t.name = "hanc"; }));
    expectMoved("seed", keyAfter([](Trace &t) { t.seed = 8; }));
    expectMoved("count", keyAfter([](Trace &t) { t.records.pop_back(); }));
    expectMoved("config",
                traceCellKey(handTrace(), PipelineConfig::forDepth(9)));
}

TEST(TraceCellKey, TapeRoundTripKeepsTheKey)
{
    // The records written with dirty padding come back with whatever
    // padding the reader leaves: an unchanged key shows that only
    // field values are hashed.
    const Trace t = handTrace();
    const std::string path = ::testing::TempDir() + "hand-key.pptr";
    writeTrace(t, path);
    const Trace back = readTrace(path);
    std::remove(path.c_str());
    const PipelineConfig config = PipelineConfig::forDepth(8);
    EXPECT_EQ(traceCellKey(back, config), traceCellKey(t, config));
}

/**
 * Saves and restores the three environment variables the default-dir
 * resolution reads, so the tests can rearrange them freely.
 */
class DefaultDirEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        save("PIPEDEPTH_CACHE_DIR");
        save("XDG_CACHE_HOME");
        save("HOME");
    }

    void
    TearDown() override
    {
        for (const auto &[name, value] : saved_) {
            if (value)
                ::setenv(name.c_str(), value->c_str(), 1);
            else
                ::unsetenv(name.c_str());
        }
    }

    static void
    clearAll()
    {
        ::unsetenv("PIPEDEPTH_CACHE_DIR");
        ::unsetenv("XDG_CACHE_HOME");
        ::unsetenv("HOME");
    }

  private:
    void
    save(const char *name)
    {
        const char *v = std::getenv(name);
        saved_.emplace_back(name, v ? std::optional<std::string>(v)
                                    : std::nullopt);
    }

    std::vector<std::pair<std::string, std::optional<std::string>>>
        saved_;
};

TEST_F(DefaultDirEnv, ExplicitDirWinsOverEverything)
{
    clearAll();
    ::setenv("PIPEDEPTH_CACHE_DIR", "/tmp/pd-explicit", 1);
    ::setenv("XDG_CACHE_HOME", "/tmp/pd-xdg", 1);
    ::setenv("HOME", "/tmp/pd-home", 1);
    const char *source = nullptr;
    EXPECT_EQ(ResultCache::resolveDefaultDir(&source),
              "/tmp/pd-explicit");
    EXPECT_STREQ(source, "PIPEDEPTH_CACHE_DIR");
}

TEST_F(DefaultDirEnv, EmptyExplicitDirDisablesCaching)
{
    clearAll();
    ::setenv("PIPEDEPTH_CACHE_DIR", "", 1);
    ::setenv("HOME", "/tmp/pd-home", 1);
    const char *source = nullptr;
    EXPECT_EQ(ResultCache::resolveDefaultDir(&source), "");
    EXPECT_STREQ(source, "PIPEDEPTH_CACHE_DIR");
}

TEST_F(DefaultDirEnv, XdgCacheHomeBeatsHome)
{
    clearAll();
    ::setenv("XDG_CACHE_HOME", "/tmp/pd-xdg", 1);
    ::setenv("HOME", "/tmp/pd-home", 1);
    const char *source = nullptr;
    EXPECT_EQ(ResultCache::resolveDefaultDir(&source),
              "/tmp/pd-xdg/pipedepth");
    EXPECT_STREQ(source, "XDG_CACHE_HOME");
}

TEST_F(DefaultDirEnv, EmptyXdgFallsThroughToHome)
{
    clearAll();
    ::setenv("XDG_CACHE_HOME", "", 1);
    ::setenv("HOME", "/tmp/pd-home", 1);
    const char *source = nullptr;
    EXPECT_EQ(ResultCache::resolveDefaultDir(&source),
              "/tmp/pd-home/.cache/pipedepth");
    EXPECT_STREQ(source, "HOME");
}

TEST_F(DefaultDirEnv, NothingSetFallsBackToCwdDir)
{
    clearAll();
    const char *source = nullptr;
    EXPECT_EQ(ResultCache::resolveDefaultDir(&source),
              ".pipedepth-cache");
    EXPECT_STREQ(source, "cwd");
}

TEST_F(DefaultDirEnv, EmptyHomeFallsBackToCwdDir)
{
    clearAll();
    ::setenv("HOME", "", 1);
    const char *source = nullptr;
    EXPECT_EQ(ResultCache::resolveDefaultDir(&source),
              ".pipedepth-cache");
    EXPECT_STREQ(source, "cwd");
}

} // namespace
} // namespace pipedepth
