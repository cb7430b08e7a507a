/**
 * @file
 * Reliability suite (docs/RELIABILITY.md): quarantine semantics of
 * the sweep engine under injected faults and healing by re-running,
 * cache I/O
 * degradation paths, interrupt drain, the concurrent-writer
 * torn-entry guarantee, and — through the real pipesim binary —
 * kill-and-rerun byte-identity, the graceful SIGTERM drain, and two
 * concurrent runs on one cache, one of them SIGKILLed.
 *
 * Everything here is driven by the deterministic failpoint framework
 * (common/failpoint.hh); no test depends on timing except where a
 * subprocess is killed mid-run, and those accept the benign race of
 * the run finishing first.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/json.hh"
#include "support/cached_cells.hh"
#include "support/metric_deltas.hh"
#include "support/subprocess.hh"
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
    makeEngine(bool use_cache)
    {
        SweepEngineOptions opt;
        opt.use_cache = use_cache;
        opt.cache_dir = (dir_ / "cache").string();
        return SweepEngine(opt);
    }

    std::size_t
    cacheEntryCount() const
    {
        return cachedCellCount(dir_ / "cache");
    }

    std::filesystem::path dir_;
};

// ---------------------------------------------------------------------
// Quarantine, and healing by re-running

TEST_F(ReliabilityTest, QuarantinedCellHealsOnRerun)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();

    SweepEngine clean = makeEngine(false);
    const std::optional<SweepResult> want = clean.runSweep(spec, opt);
    ASSERT_TRUE(want.has_value());

    // One injected fault: the first simulated cell fails its one
    // attempt and is quarantined; the hole is never cached, and no
    // SweepResult is assembled around it.
    SweepEngine engine = makeEngine(true);
    {
        ScopedFailpoints guard("sweep.cell.simulate=once");
        SpanTracer &tracer = SpanTracer::instance();
        tracer.clear();
        tracer.setEnabled(true);
        const MetricDeltas tally;
        EXPECT_FALSE(engine.runSweep(spec, opt).has_value());
        const auto spans = tracer.rollups();
        tracer.setEnabled(false);
        tracer.clear();

        ASSERT_EQ(engine.lastFailures().size(), 1u);
        EXPECT_EQ(tally["sweep.cell.quarantine"], 1u);
        EXPECT_EQ(tally["sweep.cell.compute"], cellCount(opt) - 1);
        EXPECT_EQ(cacheEntryCount(), cellCount(opt) - 1);
        const CacheKey hole = simCellKey(
            spec, opt.trace_length,
            opt.configAtDepth(engine.lastFailures()[0].depth));
        for (const CachedCell &cell :
             ResultCache((dir_ / "cache").string())
                 .read(specCellHasher(spec, opt.trace_length).key()))
            EXPECT_NE(cell.key, hole);
        // The armed run takes the production walk: the 5 cells form
        // groups of 4 and 1, and each group's survivors walk together,
        // so there are fewer walks than computed cells.
        ASSERT_EQ(spans.count("sweep.cell.fused"), 1u);
        const std::uint64_t walks = spans.at("sweep.cell.fused").count;
        EXPECT_GT(walks, 0u);
        EXPECT_LT(walks, tally["sweep.cell.compute"]);
    }

    // The same sweep on the same cache computes only the hole, and
    // its grid is byte-identical to the clean run's.
    const MetricDeltas tally;
    const std::optional<SweepResult> got = engine.runSweep(spec, opt);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(engine.lastFailures().empty());
    EXPECT_EQ(tally["sweep.cell.compute"], 1u);
    EXPECT_EQ(tally["sweep.cell.cached"], cellCount(opt) - 1);
    ASSERT_EQ(got->runs.size(), want->runs.size());
    for (std::size_t i = 0; i < want->runs.size(); ++i) {
        EXPECT_EQ(serializeSimResult(got->runs[i]),
                  serializeSimResult(want->runs[i]))
            << "depth " << want->runs[i].depth;
    }
}

TEST_F(ReliabilityTest, ExhaustedRetriesQuarantineWithExplicitHoles)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();

    ScopedFailpoints guard("sweep.cell.simulate=always");
    const MetricDeltas tally;
    SweepEngine engine = makeEngine(false);

    // The call returned — no exception — but every cell is a hole,
    // each after one attempt: nothing retries in-process.
    EXPECT_FALSE(engine.runSweep(spec, opt).has_value());
    EXPECT_EQ(failpoints::hitCount("sweep.cell.simulate"), cellCount(opt));
    ASSERT_EQ(engine.lastFailures().size(), cellCount(opt));
    for (std::size_t k = 0; k < engine.lastFailures().size(); ++k) {
        const FailureRecord &f = engine.lastFailures()[k];
        EXPECT_EQ(f.workload, "db1");
        EXPECT_EQ(f.cause.rfind("quarantined: ", 0), 0u) << f.cause;
        EXPECT_NE(f.cause.find("sweep.cell.simulate"),
                  std::string::npos);
        // The list comes in cell order (ascending depth), not in the
        // order the worker threads finished the cells.
        EXPECT_EQ(f.depth, opt.min_depth + static_cast<int>(k));
    }
    EXPECT_EQ(tally["sweep.cell.quarantine"], cellCount(opt));
    EXPECT_EQ(tally["sweep.cell.compute"], 0u);

    // runConfigs keeps one run per config: cycles 0 marks a hole.
    const std::vector<SimResult> runs = engine.runConfigs(
        spec, opt.trace_length, {opt.configAtDepth(opt.min_depth)});
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].cycles, 0u);
    EXPECT_EQ(runs[0].workload, "db1");
}

TEST_F(ReliabilityTest, QuarantinedCellsAreNeverCached)
{
    ScopedFailpoints guard("sweep.cell.simulate=always");
    SweepEngine engine = makeEngine(true);
    EXPECT_FALSE(
        engine.runSweep(findWorkload("db1"), fastOptions()).has_value());
    EXPECT_EQ(cacheEntryCount(), 0u);
}

TEST_F(ReliabilityTest, PartialQuarantineKeepsOtherCellsLive)
{
    // Fail only the first attempted cell: exactly one hole, every
    // other cell computes normally.
    ScopedFailpoints guard("sweep.cell.simulate=once");
    const MetricDeltas tally;
    SweepEngine engine = makeEngine(false);
    const SweepOptions opt = fastOptions();
    EXPECT_FALSE(engine.runSweep(findWorkload("db1"), opt).has_value());
    EXPECT_EQ(engine.lastFailures().size(), 1u);
    EXPECT_EQ(tally["sweep.cell.quarantine"], 1u);
    EXPECT_EQ(tally["sweep.cell.compute"], cellCount(opt) - 1);
}

// ---------------------------------------------------------------------
// Cache I/O degradation

TEST_F(ReliabilityTest, StoreWriteFaultDegradesToUncached)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();
    {
        ScopedFailpoints guard("cache.store.write=always");
        const MetricDeltas tally;
        SweepEngine engine = makeEngine(true);
        // A cache fault is not a cell fault.
        EXPECT_TRUE(engine.runSweep(spec, opt).has_value());
        EXPECT_EQ(tally["cache.entry.store"], 0u);
        EXPECT_EQ(tally["cache.entry.store_fail"], cellCount(opt));
        EXPECT_EQ(cacheEntryCount(), 0u);
    }
    // The opened log is all that is left: no frame, and no other file.
    for (const auto &e :
         std::filesystem::directory_iterator(dir_ / "cache")) {
        EXPECT_EQ(e.path().extension(), ".simlog") << e.path();
        EXPECT_EQ(std::filesystem::file_size(e.path()), 0u) << e.path();
    }
}

TEST_F(ReliabilityTest, StoreOpenFaultLeavesNoEntry)
{
    ScopedFailpoints guard("cache.store.open=always");
    const MetricDeltas tally;
    SweepEngine engine = makeEngine(true);
    const SweepOptions opt = fastOptions();
    EXPECT_TRUE(engine.runSweep(findWorkload("db1"), opt).has_value());
    EXPECT_EQ(tally["cache.entry.store"], 0u);
    EXPECT_EQ(tally["cache.entry.store_fail"], cellCount(opt));
    EXPECT_TRUE(std::filesystem::is_empty(dir_ / "cache"));
}

TEST_F(ReliabilityTest, LoadFaultRecomputesIdentically)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();

    SweepEngine warm = makeEngine(true);
    const std::optional<SweepResult> want = warm.runSweep(spec, opt);
    ASSERT_TRUE(want.has_value());
    ASSERT_EQ(cacheEntryCount(), cellCount(opt));

    // Every probe fails: the warm cache behaves as cold, and the
    // recomputed grid matches the cached one byte for byte.
    ScopedFailpoints guard("cache.load.read=always");
    const MetricDeltas tally;
    SweepEngine engine = makeEngine(true);
    const std::optional<SweepResult> got = engine.runSweep(spec, opt);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(tally["sweep.cell.cached"], 0u);
    EXPECT_EQ(tally["sweep.cell.compute"], cellCount(opt));
    for (std::size_t i = 0; i < want->runs.size(); ++i) {
        EXPECT_EQ(serializeSimResult(got->runs[i]),
                  serializeSimResult(want->runs[i]));
    }
}

// ---------------------------------------------------------------------
// Interrupt drain

TEST_F(ReliabilityTest, InterruptDrainSkipsRemainingCells)
{
    requestInterrupt();
    const MetricDeltas tally;
    SweepEngine engine = makeEngine(false);
    const SweepOptions opt = fastOptions();
    EXPECT_FALSE(engine.runSweep(findWorkload("db1"), opt).has_value());

    EXPECT_EQ(tally["sweep.cell.skip"], cellCount(opt));
    EXPECT_EQ(tally["sweep.cell.compute"], 0u);
    ASSERT_EQ(engine.lastFailures().size(), cellCount(opt));
    for (const FailureRecord &f : engine.lastFailures())
        EXPECT_EQ(f.cause, "skipped: interrupt drain");
}

// ---------------------------------------------------------------------
// Manifest v3

TEST_F(ReliabilityTest, ManifestEnumeratesQuarantinedHoles)
{
    const SweepOptions opt = fastOptions();
    RunManifest manifest;
    manifest.setTool("test_reliability");

    ScopedFailpoints guard("sweep.cell.simulate=always");
    SweepEngine engine = makeEngine(false);
    engine.attachManifest(&manifest);
    engine.runSweep(findWorkload("db1"), opt);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(manifest.toJson(), &doc, &error))
        << error;
    ASSERT_TRUE(validateManifest(doc, &error)) << error;

    EXPECT_EQ(doc.find("status")->string, "complete");
    // v3 keeps only what the run measured: no attempt counts and no
    // per-cell seconds.
    const JsonValue *counts = doc.find("cell_counts");
    std::vector<std::string> keys;
    for (const auto &[key, value] : counts->object)
        keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"total", "computed",
                                              "cached", "quarantined"}));
    EXPECT_EQ(counts->find("quarantined")->number,
              static_cast<double>(cellCount(opt)));
    EXPECT_EQ(counts->find("computed")->number, 0.0);
    ASSERT_EQ(doc.find("cells")->array.size(), cellCount(opt));
    for (const JsonValue &cell : doc.find("cells")->array) {
        keys.clear();
        for (const auto &[key, value] : cell.object)
            keys.push_back(key);
        EXPECT_EQ(keys, (std::vector<std::string>{"workload", "depth",
                                                  "outcome",
                                                  "instructions"}));
        EXPECT_EQ(cell.find("outcome")->string, "quarantined");
    }
}

// ---------------------------------------------------------------------
// Concurrent writers under injected faults

TEST_F(ReliabilityTest, ConcurrentFaultyWritersNeverExposeTornEntry)
{
    const WorkloadSpec spec = findWorkload("db1");
    const SweepOptions opt = fastOptions();
    SweepEngine source = makeEngine(false);
    // All writers hammer the depth-2 entry of this sweep.
    const SimResult result = source.runSweep(spec, opt).value().runs.front();
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
            // Child: hammer the same key with stores, each open or
            // write failing with seeded probability 0.5.
            failpoints::reset();
            failpoints::setSeed(1000 + static_cast<std::uint64_t>(w));
            failpoints::configure(
                "cache.store.open=p:0.5;cache.store.write=p:0.5");
            const ResultCache cache(cache_dir);
            for (int i = 0; i < kStoresPerWriter; ++i)
                cache.store(key, result);
            ::_exit(0);
        }
        children.push_back(pid);
    }

    // Parent: concurrently probe the entry. Every load must be a
    // clean hit or a miss — never a corrupt (torn) entry. The children
    // count in their own registries.
    const ResultCache cache(cache_dir);
    const std::vector<std::uint8_t> want = serializeSimResult(result);
    const MetricDeltas tally;
    bool any_hit = false;
    for (int i = 0; i < 2000; ++i) {
        if (const auto hit = cache.load(key)) {
            any_hit = true;
            EXPECT_EQ(serializeSimResult(*hit), want);
        }
    }
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u)
        << "torn cache entry became visible";

    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // With p=0.5 over 100 attempts, at least one store landed; the
    // final state must be the complete entry.
    const auto final_hit = cache.load(key);
    ASSERT_TRUE(final_hit.has_value());
    EXPECT_EQ(tally["cache.probe.corrupt"], 0u);
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
 * Start `pipesim ARGS` on result cache @p cache, its stdout to @p out
 * and its stderr discarded. @return its pid, or -1 if fork failed.
 */
pid_t
startPipesim(const std::filesystem::path &cache,
             const std::vector<std::string> &args,
             const std::filesystem::path &out = "/dev/null")
{
    std::vector<char *> argv{const_cast<char *>(PIPESIM_PATH)};
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const std::string cache_dir = cache.string();
    const pid_t parent = ::getpid();
    const pid_t pid = fork();
    if (pid == 0) {
        dieWithParent(parent);
        ::setenv("PIPEDEPTH_CACHE_DIR", cache_dir.c_str(), 1);
        std::freopen(out.c_str(), "w", stdout);
        std::freopen("/dev/null", "w", stderr);
        ::execv(PIPESIM_PATH, argv.data());
        ::_exit(127);
    }
    return pid;
}

/**
 * Start `pipesim ARGS` on result cache @p cache with its output
 * discarded, wait until the cache holds a complete frame — the
 * progress a re-run picks up — then send @p signal and reap the
 * process. @return its wait status.
 */
int
interruptOnceCached(const std::filesystem::path &cache,
                    const std::vector<std::string> &args, int signal)
{
    const pid_t pid = startPipesim(cache, args);
    if (pid == -1)
        return -1;
    for (int i = 0; i < 2000 && cachedCellCount(cache) == 0; ++i)
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
    ASSERT_GE(cachedCellCount(victim_cache), 1u);

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

/** cell_counts of the manifest at @p path, as {total, computed,
 *  cached, quarantined}; checks that the manifest validates and that
 *  its run completed. */
std::vector<double>
cellCounts(const std::filesystem::path &path)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(slurp(path), &doc, &error)) << error;
    EXPECT_TRUE(validateManifest(doc, &error)) << error;
    const JsonValue *status = doc.find("status");
    EXPECT_TRUE(status != nullptr && status->string == "complete");
    const JsonValue *counts = doc.find("cell_counts");
    if (counts == nullptr)
        return {};
    std::vector<double> out;
    for (const char *key : {"total", "computed", "cached", "quarantined"})
        out.push_back(counts->find(key)->number);
    return out;
}

TEST_F(ReliabilityTest, PipesimSweepCompletesUnderInjectedFaults)
{
    // A sweep whose every third cell fails its one attempt walks
    // every cell, prints nothing, names its 8 holes on stderr and
    // exits 3.
    const std::filesystem::path manifest_path = dir_ / "faulty.json";
    const std::filesystem::path err = dir_ / "faulty.err";
    const int rc = runShell(
        "PIPEDEPTH_CACHE_DIR= " + std::string(PIPESIM_PATH) +
        " --workload db1 --sweep --csv --length 20000 --warmup 5000 "
        "--failpoint 'sweep.cell.simulate=every:3' "
        "--manifest-out " + manifest_path.string() + " > " +
        (dir_ / "faulty.csv").string() + " 2> " + err.string());
    EXPECT_EQ(rc, 3);
    EXPECT_EQ(cellCounts(manifest_path),
              (std::vector<double>{24, 16, 0, 8}));
    EXPECT_EQ(slurp(dir_ / "faulty.csv"), "");
    std::istringstream lines(slurp(err));
    std::size_t holes = 0;
    for (std::string line; std::getline(lines, line);)
        holes += line.rfind("hole: db1 depth ", 0) == 0 ? 1 : 0;
    EXPECT_EQ(holes, 8u) << slurp(err);
}

TEST_F(ReliabilityTest, PipesimRerunHealsQuarantinedCells)
{
    // Re-running is the one way to recover a hole: the faulted run
    // caches its 16 live cells and none of its 8 holes and prints
    // nothing, and the same command without the fault serves the 16,
    // computes the 8, and prints a clean run's grid.
    const std::string sweep =
        std::string(PIPESIM_PATH) +
        " --workload db1 --sweep --csv --length 20000 --warmup 5000"
        " --threads 1";
    ASSERT_EQ(runShell(sweep + " --no-cache > " +
                       (dir_ / "clean.csv").string() + " 2>/dev/null"),
              0);

    const std::string cached =
        "PIPEDEPTH_CACHE_DIR=" + (dir_ / "cache").string() + " " + sweep;
    EXPECT_EQ(runShell(cached +
                       " --failpoint 'sweep.cell.simulate=every:3'"
                       " --manifest-out " +
                       (dir_ / "m1.json").string() + " > " +
                       (dir_ / "faulty.csv").string() + " 2>/dev/null"),
              3);
    EXPECT_EQ(cellCounts(dir_ / "m1.json"),
              (std::vector<double>{24, 16, 0, 8}));
    EXPECT_EQ(slurp(dir_ / "faulty.csv"), "");
    EXPECT_EQ(cachedCellCount(dir_ / "cache"), 16u);

    EXPECT_EQ(runShell(cached + " --manifest-out " +
                       (dir_ / "m2.json").string() + " > " +
                       (dir_ / "healed.csv").string() + " 2>/dev/null"),
              0);
    EXPECT_EQ(cellCounts(dir_ / "m2.json"),
              (std::vector<double>{24, 8, 16, 0}));
    EXPECT_EQ(slurp(dir_ / "healed.csv"), slurp(dir_ / "clean.csv"));
}

// ---------------------------------------------------------------------
// Two processes on one result cache

/** The grid every test below runs: db1 at all 24 depths. */
const std::vector<std::string> kSharedSweep = {
    "--workload", "db1", "--sweep", "--csv", "--length", "20000",
    "--warmup", "5000", "--threads", "2"};

/** Reap child @p pid. @return its exit code, or -1 if a signal ended
 *  it or it is not a child. */
int
exitCode(pid_t pid)
{
    int status = 0;
    if (pid <= 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** Does @p cache hold a result log yet? */
bool
holdsLog(const std::filesystem::path &cache)
{
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(cache, ec)) {
        if (e.path().extension() == ".simlog")
            return true;
    }
    return false;
}

/** stdout of the grid run alone, on a cache of its own under
 *  @p dir. */
std::string
referenceSweep(const std::filesystem::path &dir)
{
    EXPECT_EQ(exitCode(startPipesim(dir / "cache-ref", kSharedSweep,
                                    dir / "reference.csv")),
              0);
    return slurp(dir / "reference.csv");
}

/** Exit code 0 and stdout @p want from one more run on @p cache, which
 *  must serve every cell and walk none. */
void
expectServedWhole(const std::filesystem::path &cache,
                  const std::filesystem::path &dir, const std::string &want)
{
    std::vector<std::string> args = kSharedSweep;
    args.push_back("--manifest-out");
    args.push_back((dir / "served.json").string());
    EXPECT_EQ(exitCode(startPipesim(cache, args, dir / "served.csv")), 0);
    EXPECT_EQ(slurp(dir / "served.csv"), want);
    EXPECT_EQ(cellCounts(dir / "served.json"),
              (std::vector<double>{24, 0, 24, 0}));
}

TEST_F(ReliabilityTest, TwoSweepsOnOneCachePrintOneRunsBytes)
{
    // Concurrent runs need no coordination to share a cache: the log
    // takes their appends whole, and a cell both walk is walked twice,
    // its last frame served. Each prints the bytes of a run on a cache
    // of its own, and a third run walks nothing.
    const std::string want = referenceSweep(dir_);
    ASSERT_FALSE(want.empty());

    const std::filesystem::path shared = dir_ / "cache-shared";
    const pid_t a = startPipesim(shared, kSharedSweep, dir_ / "a.csv");
    const pid_t b = startPipesim(shared, kSharedSweep, dir_ / "b.csv");
    EXPECT_EQ(exitCode(a), 0);
    EXPECT_EQ(exitCode(b), 0);
    EXPECT_EQ(slurp(dir_ / "a.csv"), want);
    EXPECT_EQ(slurp(dir_ / "b.csv"), want);
    expectServedWhole(shared, dir_, want);
}

TEST_F(ReliabilityTest, SigkilledSharerCostsTheSurvivorNothing)
{
    // One of two runs on a cache is SIGKILLed once the cache holds a
    // log, perhaps mid-append. The survivor still prints the
    // reference bytes, and a torn append costs the run after nothing:
    // it serves every cell. The victim may have finished first, the
    // benign race this test accepts.
    const std::string want = referenceSweep(dir_);
    ASSERT_FALSE(want.empty());

    const std::filesystem::path shared = dir_ / "cache-shared";
    const pid_t survivor =
        startPipesim(shared, kSharedSweep, dir_ / "survivor.csv");
    const pid_t victim = startPipesim(shared, kSharedSweep);
    ASSERT_NE(victim, -1);
    for (int i = 0; i < 5000 && !holdsLog(shared); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ::kill(victim, SIGKILL);
    const int victim_rc = exitCode(victim);
    EXPECT_TRUE(victim_rc == -1 || victim_rc == 0) << victim_rc;
    EXPECT_EQ(exitCode(survivor), 0);
    EXPECT_EQ(slurp(dir_ / "survivor.csv"), want);
    expectServedWhole(shared, dir_, want);
}

} // namespace
} // namespace pipedepth
