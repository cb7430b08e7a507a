/**
 * @file
 * Reliability suite (docs/RELIABILITY.md): retry and quarantine
 * semantics of the sweep engine under injected faults, cache I/O
 * degradation paths, interrupt drain, the concurrent-writer
 * torn-entry guarantee, and — through the real pipesim binary —
 * kill-and-rerun byte-identity and the graceful SIGTERM drain.
 *
 * Everything here is driven by the deterministic failpoint framework
 * (common/failpoint.hh); no test depends on timing except where a
 * subprocess is killed mid-run, and those accept the benign race of
 * the run finishing first.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/json.hh"
#include "sweep/depth_sweep.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep_engine.hh"
#include "telemetry/manifest.hh"
#include "telemetry/telemetry.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

SweepOptions
fastOptions()
{
    SweepOptions opt;
    opt.min_depth = 2;
    opt.max_depth = 6;
    opt.reference_depth = 4;
    opt.trace_length = 20000;
    opt.warmup_instructions = 5000;
    return opt;
}

std::size_t
cellCount(const SweepOptions &opt)
{
    return static_cast<std::size_t>(opt.max_depth - opt.min_depth + 1);
}

/** Result-cache entries published in @p cache (0 if it is absent). */
std::size_t
simresCount(const std::filesystem::path &cache)
{
    std::error_code ec;
    std::size_t n = 0;
    for (const auto &e : std::filesystem::directory_iterator(cache, ec))
        n += e.path().extension() == ".simres" ? 1 : 0;
    return n;
}

/** Private temp dir per test; failpoints and interrupts cleared. */
class ReliabilityTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        failpoints::reset();
        clearInterruptRequest();
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("pipedepth-rel-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        failpoints::reset();
        clearInterruptRequest();
        std::filesystem::remove_all(dir_);
    }

    SweepEngine
    makeEngine(bool use_cache, unsigned max_retries = 2)
    {
        SweepEngineOptions opt;
        opt.use_cache = use_cache;
        opt.cache_dir = (dir_ / "cache").string();
        opt.max_retries = max_retries;
        return SweepEngine(opt);
    }

    std::size_t
    cacheEntryCount() const
    {
        return simresCount(dir_ / "cache");
    }

    std::filesystem::path dir_;
};

// ---------------------------------------------------------------------
// Retry and quarantine

TEST_F(ReliabilityTest, TransientFaultRetriesToIdenticalResult)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();

    SweepEngine clean = makeEngine(false);
    const SweepResult want = clean.runSweep(spec, opt);
    ASSERT_TRUE(want.complete());

    // One injected fault: the first simulated cell fails once, then
    // succeeds on retry. The grid must come out byte-identical.
    ScopedFailpoints guard("sweep.cell.simulate=once");
    SpanTracer &tracer = SpanTracer::instance();
    tracer.clear();
    tracer.setEnabled(true);
    SweepEngine engine = makeEngine(false);
    const SweepResult got = engine.runSweep(spec, opt);
    const auto spans = tracer.rollups();
    tracer.setEnabled(false);
    tracer.clear();

    EXPECT_TRUE(got.complete());
    const SweepCounters c = engine.counters();
    EXPECT_EQ(c.cells_retried, 1u);
    EXPECT_EQ(c.cells_quarantined, 0u);
    // The armed run takes the production walk: the 5 cells form
    // groups of 4 and 1, and each round's survivors walk together,
    // so there are fewer walks than computed cells.
    ASSERT_EQ(spans.count("sweep.cell.fused"), 1u);
    const std::uint64_t walks = spans.at("sweep.cell.fused").count;
    EXPECT_GT(walks, 0u);
    EXPECT_LT(walks, c.cells_computed);
    ASSERT_EQ(got.runs.size(), want.runs.size());
    for (std::size_t i = 0; i < want.runs.size(); ++i) {
        EXPECT_EQ(serializeSimResult(got.runs[i]),
                  serializeSimResult(want.runs[i]))
            << "depth " << want.runs[i].depth;
    }
}

TEST_F(ReliabilityTest, ExhaustedRetriesQuarantineWithExplicitHoles)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();
    const unsigned max_retries = 2;

    ScopedFailpoints guard("sweep.cell.simulate=always");
    SweepEngine engine = makeEngine(false, max_retries);
    const SweepResult sweep = engine.runSweep(spec, opt);

    // The sweep completed — no exception — but every cell is a hole.
    EXPECT_FALSE(sweep.complete());
    ASSERT_EQ(sweep.failures.size(), cellCount(opt));
    ASSERT_EQ(engine.lastFailures().size(), cellCount(opt));
    for (std::size_t k = 0; k < sweep.failures.size(); ++k) {
        const FailureRecord &f = sweep.failures[k];
        EXPECT_EQ(f.workload, "db1");
        EXPECT_EQ(f.failpoint, "sweep.cell.simulate");
        EXPECT_EQ(f.attempts, 1 + max_retries);
        EXPECT_NE(f.cause.find("sweep.cell.simulate"),
                  std::string::npos);
        // Both lists come in cell order (ascending depth), not in
        // the order the worker threads finished the cells.
        EXPECT_EQ(f.depth, opt.min_depth + static_cast<int>(k));
        EXPECT_EQ(engine.lastFailures()[k].depth, f.depth);
    }
    ASSERT_EQ(sweep.runs.size(), cellCount(opt));
    for (const SimResult &r : sweep.runs) {
        EXPECT_EQ(r.cycles, 0u); // the hole marker
        EXPECT_EQ(r.workload, "db1");
    }
    const SweepCounters c = engine.counters();
    EXPECT_EQ(c.cells_quarantined, cellCount(opt));
    EXPECT_EQ(c.cells_computed, 0u);
}

TEST_F(ReliabilityTest, QuarantinedCellsAreNeverCached)
{
    ScopedFailpoints guard("sweep.cell.simulate=always");
    SweepEngine engine = makeEngine(true, 0);
    const SweepResult sweep =
        engine.runSweep(findWorkload("db1"), fastOptions());
    EXPECT_FALSE(sweep.complete());
    EXPECT_EQ(cacheEntryCount(), 0u);
}

TEST_F(ReliabilityTest, PartialQuarantineKeepsOtherCellsLive)
{
    // Fail only the first attempted cell, with no retries: exactly
    // one hole, every other cell computes normally.
    ScopedFailpoints guard("sweep.cell.simulate=once");
    SweepEngine engine = makeEngine(false, 0);
    const SweepOptions opt = fastOptions();
    const SweepResult sweep = engine.runSweep(findWorkload("db1"), opt);

    EXPECT_FALSE(sweep.complete());
    ASSERT_EQ(sweep.failures.size(), 1u);
    std::size_t holes = 0;
    for (const SimResult &r : sweep.runs)
        holes += r.cycles == 0 ? 1 : 0;
    EXPECT_EQ(holes, 1u);
    EXPECT_EQ(engine.counters().cells_computed, cellCount(opt) - 1);
}

TEST_F(ReliabilityTest, QuarantinedHolesAreSkippedByFitsAndAccessors)
{
    // Regression: a hole (cycles == 0) used to be folded into
    // depths()/metric()/bips()/latchCounts() as a 0-cycle run — NaN
    // BIPS and zero latency bending the cubic and power-law fits.
    // Every accessor must skip the hole, keeping the vectors zipped.
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();

    SweepEngine clean = makeEngine(false);
    const SweepResult full = clean.runSweep(spec, opt);
    ASSERT_TRUE(full.complete());

    ScopedFailpoints guard("sweep.cell.simulate=once");
    SweepEngine engine = makeEngine(false, 0);
    const SweepResult holey = engine.runSweep(spec, opt);
    ASSERT_EQ(holey.failures.size(), 1u);
    const int hole_depth = holey.failures[0].depth;

    const std::size_t survivors = cellCount(opt) - 1;
    const std::vector<double> depths = holey.depths();
    ASSERT_EQ(depths.size(), survivors);
    EXPECT_EQ(holey.metric(3.0, true).size(), survivors);
    EXPECT_EQ(holey.bips().size(), survivors);
    EXPECT_EQ(holey.latchCounts().size(), survivors);
    EXPECT_EQ(std::count(depths.begin(), depths.end(),
                         static_cast<double>(hole_depth)),
              0);
    for (const double b : holey.bips())
        EXPECT_TRUE(std::isfinite(b) && b > 0.0);

    // Surviving cells are byte-identical to the clean sweep, so their
    // BIPS match exactly when zipped over the surviving depths.
    const std::vector<double> full_depths = full.depths();
    const std::vector<double> full_bips = full.bips();
    const std::vector<double> holey_bips = holey.bips();
    for (std::size_t i = 0, j = 0; i < full_depths.size(); ++i) {
        if (full_depths[i] == static_cast<double>(hole_depth))
            continue;
        ASSERT_LT(j, depths.size());
        EXPECT_EQ(depths[j], full_depths[i]);
        EXPECT_EQ(holey_bips[j], full_bips[i]);
        ++j;
    }

    // The fits run over the surviving cells and stay finite.
    bool interior = false;
    EXPECT_TRUE(
        std::isfinite(holey.cubicFitPerformanceOptimum(&interior)));
    EXPECT_TRUE(
        std::isfinite(holey.cubicFitOptimum(3.0, true, &interior)));
    EXPECT_TRUE(std::isfinite(measuredLatchExponent(holey)));

    // When the reference cell survived, extraction (alpha/gamma/N_H)
    // saw a real run and the theory overlay lines up cell-for-cell.
    if (hole_depth != opt.reference_depth) {
        EXPECT_EQ(holey.extracted.alpha, full.extracted.alpha);
        EXPECT_EQ(holey.extracted.gamma, full.extracted.gamma);
        EXPECT_EQ(holey.extracted.hazard_ratio,
                  full.extracted.hazard_ratio);
        double r2 = 0.0;
        EXPECT_EQ(holey.theoryCurve(3.0, true, &r2).size(), survivors);
        EXPECT_TRUE(std::isfinite(r2));
    }
}

// ---------------------------------------------------------------------
// Cache I/O degradation

TEST_F(ReliabilityTest, StoreWriteFaultDegradesToUncached)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();
    {
        ScopedFailpoints guard("cache.store.write=always");
        SweepEngine engine = makeEngine(true);
        const SweepResult sweep = engine.runSweep(spec, opt);
        EXPECT_TRUE(sweep.complete()); // a cache fault is not a cell fault
        EXPECT_EQ(engine.counters().cache_stores, 0u);
        EXPECT_EQ(cacheEntryCount(), 0u);
    }
    // No torn temp files left behind either.
    std::size_t leftovers = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir_ / "cache"))
        leftovers += e.path().string().find(".tmp.") != std::string::npos;
    EXPECT_EQ(leftovers, 0u);
}

TEST_F(ReliabilityTest, StoreRenameFaultLeavesNoEntry)
{
    ScopedFailpoints guard("cache.store.rename=always");
    SweepEngine engine = makeEngine(true);
    const SweepResult sweep =
        engine.runSweep(findWorkload("db1"), fastOptions());
    EXPECT_TRUE(sweep.complete());
    EXPECT_EQ(engine.counters().cache_stores, 0u);
    EXPECT_EQ(cacheEntryCount(), 0u);
}

TEST_F(ReliabilityTest, LoadFaultRecomputesIdentically)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();

    SweepEngine warm = makeEngine(true);
    const SweepResult want = warm.runSweep(spec, opt);
    ASSERT_EQ(cacheEntryCount(), cellCount(opt));

    // Every probe fails: the warm cache behaves as cold, and the
    // recomputed grid matches the cached one byte for byte.
    ScopedFailpoints guard("cache.load.read=always");
    SweepEngine engine = makeEngine(true);
    const SweepResult got = engine.runSweep(spec, opt);
    EXPECT_EQ(engine.counters().cache_hits, 0u);
    EXPECT_EQ(engine.counters().cells_computed, cellCount(opt));
    for (std::size_t i = 0; i < want.runs.size(); ++i) {
        EXPECT_EQ(serializeSimResult(got.runs[i]),
                  serializeSimResult(want.runs[i]));
    }
}

// ---------------------------------------------------------------------
// Interrupt drain

TEST_F(ReliabilityTest, InterruptDrainSkipsRemainingCells)
{
    requestInterrupt();
    SweepEngine engine = makeEngine(false);
    const SweepOptions opt = fastOptions();
    const SweepResult sweep = engine.runSweep(findWorkload("db1"), opt);

    EXPECT_FALSE(sweep.complete());
    EXPECT_EQ(engine.counters().cells_skipped, cellCount(opt));
    EXPECT_EQ(engine.counters().cells_computed, 0u);
    ASSERT_EQ(sweep.failures.size(), cellCount(opt));
    for (const FailureRecord &f : sweep.failures) {
        EXPECT_EQ(f.cause, "skipped: interrupt drain");
        EXPECT_EQ(f.attempts, 0u);
    }
}

// ---------------------------------------------------------------------
// Manifest v2

TEST_F(ReliabilityTest, ManifestEnumeratesQuarantinedHoles)
{
    const SweepOptions opt = fastOptions();
    RunManifest manifest;
    manifest.setTool("test_reliability");

    ScopedFailpoints guard("sweep.cell.simulate=always");
    SweepEngine engine = makeEngine(false, 1);
    engine.attachManifest(&manifest);
    engine.runSweep(findWorkload("db1"), opt);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(manifest.toJson(), &doc, &error))
        << error;
    ASSERT_TRUE(validateManifest(doc, &error)) << error;

    EXPECT_EQ(doc.find("status")->string, "complete");
    const JsonValue *counts = doc.find("cell_counts");
    EXPECT_EQ(counts->find("quarantined")->number,
              static_cast<double>(cellCount(opt)));
    EXPECT_EQ(counts->find("computed")->number, 0.0);
    for (const JsonValue &cell : doc.find("cells")->array) {
        EXPECT_EQ(cell.find("outcome")->string, "quarantined");
        EXPECT_EQ(cell.find("attempts")->number, 2.0); // 1 + 1 retry
    }
}

TEST_F(ReliabilityTest, ManifestCountsRetriedCells)
{
    RunManifest manifest;
    manifest.setTool("test_reliability");

    ScopedFailpoints guard("sweep.cell.simulate=once");
    SweepEngine engine = makeEngine(false);
    engine.attachManifest(&manifest);
    engine.runSweep(findWorkload("db1"), fastOptions());

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(manifest.toJson(), &doc, &error));
    ASSERT_TRUE(validateManifest(doc, &error)) << error;
    EXPECT_EQ(doc.find("cell_counts")->find("retried")->number, 1.0);
    EXPECT_EQ(doc.find("cell_counts")->find("quarantined")->number, 0.0);
}

// ---------------------------------------------------------------------
// Concurrent writers under injected faults

TEST_F(ReliabilityTest, ConcurrentFaultyWritersNeverExposeTornEntry)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();
    SweepEngine source = makeEngine(false);
    // All writers hammer the depth-2 entry of this sweep.
    const SimResult result = source.runSweep(spec, opt).runs.front();
    const CacheKey key =
        simCellKey(spec, opt.trace_length, opt.configAtDepth(2));

    const std::string cache_dir = (dir_ / "cache").string();
    constexpr int kWriters = 4;
    constexpr int kStoresPerWriter = 25;

    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            // Child: hammer the same key with stores, each write or
            // rename failing with seeded probability 0.5.
            failpoints::reset();
            failpoints::setSeed(1000 + static_cast<std::uint64_t>(w));
            failpoints::configure(
                "cache.store.write=p:0.5;cache.store.rename=p:0.5");
            const ResultCache cache(cache_dir);
            for (int i = 0; i < kStoresPerWriter; ++i)
                cache.store(key, result);
            ::_exit(0);
        }
        children.push_back(pid);
    }

    // Parent: concurrently probe the entry. Every load must be a
    // clean hit or a miss — never a corrupt (torn) entry.
    const ResultCache cache(cache_dir);
    const std::vector<std::uint8_t> want = serializeSimResult(result);
    bool any_hit = false;
    for (int i = 0; i < 2000; ++i) {
        bool corrupt = false;
        if (const auto hit = cache.load(key, &corrupt)) {
            any_hit = true;
            EXPECT_EQ(serializeSimResult(*hit), want);
        }
        EXPECT_FALSE(corrupt) << "torn cache entry became visible";
    }

    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // With p=0.5 over 100 attempts, at least one store landed; the
    // final state must be the complete entry.
    bool corrupt = false;
    const auto final_hit = cache.load(key, &corrupt);
    ASSERT_TRUE(final_hit.has_value());
    EXPECT_FALSE(corrupt);
    EXPECT_EQ(serializeSimResult(*final_hit), want);
    EXPECT_TRUE(any_hit || final_hit.has_value());
}

// ---------------------------------------------------------------------
// Kill and re-run through the real binary

int
runShell(const std::string &cmd)
{
    const int rc = std::system(cmd.c_str());
    if (rc == -1)
        return -1;
    if (WIFEXITED(rc))
        return WEXITSTATUS(rc);
    if (WIFSIGNALED(rc))
        return 128 + WTERMSIG(rc);
    return -1;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Start `pipesim ARGS` on result cache @p cache with its output
 * discarded, wait until the cache holds a published entry — the
 * progress a re-run picks up — then send @p signal and reap the
 * process. @return its wait status.
 */
int
interruptOnceCached(const std::filesystem::path &cache,
                    const std::vector<std::string> &args, int signal)
{
    std::vector<char *> argv{const_cast<char *>(PIPESIM_PATH)};
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid == -1)
        return -1;
    if (pid == 0) {
        ::setenv("PIPEDEPTH_CACHE_DIR", cache.string().c_str(), 1);
        std::freopen("/dev/null", "w", stdout);
        std::freopen("/dev/null", "w", stderr);
        ::execv(PIPESIM_PATH, argv.data());
        ::_exit(127);
    }
    for (int i = 0; i < 2000 && simresCount(cache) == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ::kill(pid, signal);
    int status = 0;
    waitpid(pid, &status, 0);
    return status;
}

TEST_F(ReliabilityTest, KillAndResumeYieldsByteIdenticalGrid)
{
    const std::string sweep_args =
        "--workload db1 --sweep --csv --length 60000 --warmup 10000 "
        "--threads 2";
    const std::filesystem::path ref_out = dir_ / "reference.csv";
    const std::filesystem::path res_out = dir_ / "resumed.csv";
    const std::filesystem::path manifest_path = dir_ / "resumed.json";

    // Reference: the uninterrupted grid (its own cache).
    ASSERT_EQ(runShell("PIPEDEPTH_CACHE_DIR=" +
                       (dir_ / "cache-ref").string() + " " +
                       PIPESIM_PATH + " " + sweep_args + " > " +
                       ref_out.string() + " 2>/dev/null"),
              0);

    // Victim: same grid, separate cache, killed with SIGKILL as soon
    // as its first cell is in the cache.
    const std::filesystem::path victim_cache = dir_ / "cache-victim";
    interruptOnceCached(victim_cache,
                        {"--workload", "db1", "--sweep", "--csv",
                         "--length", "60000", "--warmup", "10000",
                         "--threads", "2"},
                        SIGKILL);
    ASSERT_GE(simresCount(victim_cache), 1u);

    // Resume is the same command on the same cache: cached cells
    // replay, the rest compute, and the grid matches the reference
    // byte for byte.
    ASSERT_EQ(runShell("PIPEDEPTH_CACHE_DIR=" + victim_cache.string() +
                       " " + PIPESIM_PATH + " " + sweep_args +
                       " --manifest-out " + manifest_path.string() +
                       " > " + res_out.string() + " 2>/dev/null"),
              0);
    EXPECT_EQ(slurp(res_out), slurp(ref_out));

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(slurp(manifest_path), &doc, &error))
        << error;
    ASSERT_TRUE(validateManifest(doc, &error)) << error;
    const JsonValue *counts = doc.find("cell_counts");
    const double cached = counts->find("cached")->number;
    EXPECT_GE(cached, 1.0);
    EXPECT_EQ(counts->find("computed")->number + cached, 24.0);
}

TEST_F(ReliabilityTest, SigtermDrainsWithInterruptedManifest)
{
    const std::filesystem::path manifest_path = dir_ / "manifest.json";

    const int status = interruptOnceCached(
        dir_ / "cache-drain",
        {"--workload", "db1", "--sweep", "--length", "200000",
         "--warmup", "10000", "--threads", "2", "--manifest-out",
         manifest_path.string()},
        SIGTERM);
    ASSERT_TRUE(WIFEXITED(status));
    if (WEXITSTATUS(status) == 0)
        GTEST_SKIP() << "sweep finished before SIGTERM landed";
    EXPECT_EQ(WEXITSTATUS(status), 130);

    // Graceful drain: manifest finalized with status "interrupted".
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(slurp(manifest_path), &doc, &error))
        << error;
    ASSERT_TRUE(validateManifest(doc, &error)) << error;
    EXPECT_EQ(doc.find("status")->string, "interrupted");
}

TEST_F(ReliabilityTest, PipesimSweepCompletesUnderInjectedFaults)
{
    // A sweep whose every third cell fails twice (exhausting one
    // retry) completes with quarantined holes and exit code 3.
    const std::filesystem::path manifest_path = dir_ / "faulty.json";
    const int rc = runShell(
        "PIPEDEPTH_CACHE_DIR= " + std::string(PIPESIM_PATH) +
        " --workload db1 --sweep --csv --length 20000 --warmup 5000 "
        "--max-retries 0 --failpoint 'sweep.cell.simulate=every:3' "
        "--manifest-out " + manifest_path.string() +
        " >/dev/null 2>/dev/null");
    EXPECT_EQ(rc, 3);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(slurp(manifest_path), &doc, &error))
        << error;
    ASSERT_TRUE(validateManifest(doc, &error)) << error;
    EXPECT_EQ(doc.find("status")->string, "complete");
    EXPECT_GT(doc.find("cell_counts")->find("quarantined")->number, 0.0);
}

// ---------------------------------------------------------------------
// Sharded sweeps under worker crashes (docs/SHARDING.md)

TEST_F(ReliabilityTest, ShardedWorkersSurviveSigkillByteIdentical)
{
    // Four standalone shard workers share one result cache and one
    // coordination directory. One is SIGKILLed mid-run; the kernel
    // drops its group locks, the survivors steal its partition, and
    // each still emits the complete grid — byte-identical to an
    // unsharded run from a separate cache.
    const std::filesystem::path ref_out = dir_ / "reference.csv";
    ASSERT_EQ(runShell("PIPEDEPTH_CACHE_DIR=" +
                       (dir_ / "cache-ref").string() + " " +
                       PIPESIM_PATH +
                       " --workload db1 --sweep --csv --length 20000"
                       " --warmup 5000 --threads 2 > " +
                       ref_out.string() + " 2>/dev/null"),
              0);

    const std::string shared_cache = (dir_ / "cache-shared").string();
    const std::filesystem::path shard_dir = dir_ / "coord";
    pid_t workers[4] = {};
    for (unsigned k = 0; k < 4; ++k) {
        const std::string out =
            (dir_ / ("worker" + std::to_string(k) + ".csv")).string();
        const pid_t pid = fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            ::setenv("PIPEDEPTH_CACHE_DIR", shared_cache.c_str(), 1);
            std::freopen(out.c_str(), "w", stdout);
            std::freopen("/dev/null", "w", stderr);
            ::execl(PIPESIM_PATH, PIPESIM_PATH, "--workload", "db1",
                    "--sweep", "--csv", "--length", "20000", "--warmup",
                    "5000", "--threads", "2", "--shards", "4",
                    "--shard-id", std::to_string(k).c_str(),
                    "--shard-dir", shard_dir.string().c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        workers[k] = pid;
    }

    // Kill worker 1 as soon as any cell lands in the cache (it may
    // hold a group mid-walk at that point — the interesting case; it
    // may also already be done, the benign race this test accepts).
    // It stays unreaped until the survivors finish: a zombie holds no
    // locks.
    for (int i = 0; i < 2000 && simresCount(shared_cache) == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ::kill(workers[1], SIGKILL);

    int status = 0;
    for (unsigned k = 0; k < 4; ++k) {
        if (k == 1)
            continue; // SIGKILLed (or possibly finished first)
        status = 0;
        ASSERT_EQ(waitpid(workers[k], &status, 0), workers[k]);
        ASSERT_TRUE(WIFEXITED(status)) << "worker " << k;
        EXPECT_EQ(WEXITSTATUS(status), 0) << "worker " << k;
    }
    ASSERT_EQ(waitpid(workers[1], &status, 0), workers[1]);

    // Every survivor holds the full, byte-identical grid.
    const std::string want = slurp(ref_out);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(slurp(dir_ / "worker0.csv"), want);
    EXPECT_EQ(slurp(dir_ / "worker2.csv"), want);
    EXPECT_EQ(slurp(dir_ / "worker3.csv"), want);
}

TEST_F(ReliabilityTest, ShardCoordinatorRestartsKilledWorker)
{
    // Coordinator mode: pipesim --shards 4 forks its own workers.
    // SIGKILLing one needs no restart: the survivors or the merged
    // pass walk its groups, the coordinator exits 0, and the merged
    // output still matches the unsharded reference.
    const std::filesystem::path ref_out = dir_ / "reference.csv";
    ASSERT_EQ(runShell("PIPEDEPTH_CACHE_DIR=" +
                       (dir_ / "cache-ref").string() + " " +
                       PIPESIM_PATH +
                       " --workload db1 --sweep --csv --length 20000"
                       " --warmup 5000 --threads 2 > " +
                       ref_out.string() + " 2>/dev/null"),
              0);

    const std::filesystem::path out = dir_ / "sharded.csv";
    const std::filesystem::path err = dir_ / "coordinator.err";
    const std::filesystem::path shard_dir = dir_ / "coord";
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        ::setenv("PIPEDEPTH_CACHE_DIR",
                 (dir_ / "cache-sharded").string().c_str(), 1);
        std::freopen(out.string().c_str(), "w", stdout);
        std::freopen(err.string().c_str(), "w", stderr);
        ::execl(PIPESIM_PATH, PIPESIM_PATH, "--workload", "db1",
                "--sweep", "--csv", "--length", "20000", "--warmup",
                "5000", "--threads", "2", "--shards", "4",
                "--shard-dir", shard_dir.string().c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }

    // The coordinator announces every worker on stderr:
    //   "pipesim: shard 1 worker pid 12345". Kill that one.
    pid_t victim = 0;
    for (int i = 0; i < 2000 && victim == 0; ++i) {
        std::istringstream lines(slurp(err));
        std::string line;
        while (std::getline(lines, line)) {
            const std::string tag = "shard 1 worker pid ";
            const auto pos = line.find(tag);
            if (pos != std::string::npos) {
                victim = static_cast<pid_t>(
                    std::atol(line.c_str() + pos + tag.size()));
                break;
            }
        }
        if (victim == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_NE(victim, 0) << slurp(err);
    // ESRCH just means the worker finished first — the benign race.
    ::kill(victim, SIGKILL);

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << slurp(err);
    EXPECT_EQ(WEXITSTATUS(status), 0) << slurp(err);
    EXPECT_EQ(slurp(err).find("restart"), std::string::npos)
        << slurp(err);

    const std::string want = slurp(ref_out);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(slurp(out), want);
}

/**
 * A 2-shard coordinator sweep of db1 on cache @p cache with
 * coordination directory @p coord, stdout to @p out, stderr to
 * @p err. @return its exit status.
 */
int
runShardedSweep(const std::filesystem::path &cache,
                const std::filesystem::path &coord,
                const std::string &extra_args,
                const std::filesystem::path &out,
                const std::filesystem::path &err)
{
    return runShell("PIPEDEPTH_CACHE_DIR=" + cache.string() + " " +
                    PIPESIM_PATH +
                    " --workload db1 --sweep --csv --warmup 5000"
                    " --shards 2 --shard-dir " +
                    coord.string() + " " + extra_args + " > " +
                    out.string() + " 2> " + err.string());
}

TEST_F(ReliabilityTest, ShardedRerunAfterQuarantineHeals)
{
    // A hole stays with the process that met it; the coordination
    // directory keeps nothing of it. After a faulty sharded run, a
    // grid at another trace length on that directory has no hole, and
    // the same command without the fault walks the missing cells and
    // matches the unsharded grid.
    const std::filesystem::path ref_out = dir_ / "reference.csv";
    ASSERT_EQ(runShell("PIPEDEPTH_CACHE_DIR=" +
                       (dir_ / "cache-ref").string() + " " +
                       PIPESIM_PATH +
                       " --workload db1 --sweep --csv --length 20000"
                       " --warmup 5000 > " +
                       ref_out.string() + " 2>/dev/null"),
              0);

    const std::filesystem::path cache = dir_ / "cache";
    const std::filesystem::path coord = dir_ / "coord";
    const std::filesystem::path err = dir_ / "sharded.err";
    // Each process's first walk attempt fails and, with no retry,
    // leaves a hole (which another process may walk again before the
    // run ends); any exit code will do.
    runShardedSweep(cache, coord,
                    "--length 20000 --max-retries 0 --failpoint "
                    "'sweep.cell.simulate=hits:1'",
                    dir_ / "faulty.csv", err);

    EXPECT_EQ(runShardedSweep(cache, coord, "--length 30000",
                              dir_ / "other.csv", err),
              0)
        << slurp(err);

    const std::filesystem::path out = dir_ / "healed.csv";
    EXPECT_EQ(runShardedSweep(cache, coord, "--length 20000", out, err),
              0)
        << slurp(err);
    EXPECT_EQ(slurp(out), slurp(ref_out));
}

} // namespace
} // namespace pipedepth
