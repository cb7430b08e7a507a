/**
 * @file
 * Exit-code contract of the pipesim CLI, exercised by running the
 * real binary. Scripts branch on these codes, so they are pinned
 * here:
 *
 *   0  success
 *   1  runtime failure (PP_FATAL: unreadable tape, ...)
 *   2  bad invocation: unknown flag, missing flag argument, unknown
 *      workload, or no/both trace sources
 *   3  a hole: a cell failed, in either form; nothing is printed
 *      and the same command computes it
 *
 * The binary path arrives via the PIPESIM_PATH compile definition
 * (set from $<TARGET_FILE:pipesim> in tests/CMakeLists.txt); the
 * tests spawn it through std::system with stdout/stderr discarded,
 * or through popen where stdout is under test.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/json.hh"
#include "isa/isa.hh"
#include "ledger/stall_ledger.hh"
#include "support/cached_cells.hh"
#include "trace/trace_io.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

/** Run pipesim with @p args, returning its exit status (-1 = spawn
 *  failure). Output is discarded: only the code is under test. */
int
runPipesim(const std::string &args)
{
    const std::string cmd = std::string(PIPESIM_PATH) + " " + args +
                            " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    if (rc == -1)
        return -1;
    if (WIFEXITED(rc))
        return WEXITSTATUS(rc);
    return -1;
}

/**
 * Run pipesim with @p args on a fresh result cache; @p entries
 * receives the number of cells the run left in it.
 */
int
runPipesimCached(const std::string &args, std::size_t *entries)
{
    const std::filesystem::path cache =
        std::filesystem::path(::testing::TempDir()) /
        ("pipedepth-cli-" +
         std::string(
             ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(cache);
    ::setenv("PIPEDEPTH_CACHE_DIR", cache.string().c_str(), 1);
    const int rc = runPipesim(args);
    ::unsetenv("PIPEDEPTH_CACHE_DIR");

    *entries = cachedCellCount(cache);
    std::filesystem::remove_all(cache);
    return rc;
}

// Keep runs tiny: depth 4, short trace, no warmup, no cache traffic.
const char *kQuickRun =
    "--workload db1 --depth 4 --length 2000 --warmup 0 "
    "--no-cache";

TEST(PipesimCli, SuccessfulRunExitsZero)
{
    EXPECT_EQ(runPipesim(kQuickRun), 0);
}

TEST(PipesimCli, DepthRunWithAHoleExitsThree)
{
    EXPECT_EQ(runPipesim(std::string(kQuickRun) +
                         " --failpoint 'sweep.cell.simulate=once'"),
              3);
}

TEST(PipesimCli, UnknownFlagExitsTwo)
{
    EXPECT_EQ(runPipesim("--workload db1 --frobnicate"), 2);
    // Removed report flags: the summary and --manifest-out remain.
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --perf-json -"), 2);
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --verbose"), 2);
    // Removed resume flags: re-running the same command resumes.
    EXPECT_EQ(runPipesim("--resume x"), 2);
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --checkpoint x"), 2);
    // Removed knobs: no cell retries, so there is no backoff. The
    // worker-restart budget and the poll interval went with process
    // sharding, and so did its three flags: concurrent runs share a
    // cache without them.
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --retry-backoff-ms 5"),
              2);
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --restart-budget 3"),
              2);
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --shard-poll-ms 5"),
              2);
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --shards 2"), 2);
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --shard-id 0"), 2);
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --shard-dir x"), 2);
    // Removed fault knobs: a failed cell is recovered by re-running,
    // and PIPEDEPTH_FAILPOINT_SEED seeds the failpoints.
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --max-retries 1"), 2);
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --failpoint-seed 7"),
              2);
    // Removed event stream: the manifest and the summary are a run's
    // record.
    EXPECT_EQ(runPipesim(std::string(kQuickRun) + " --events-out x"), 2);
}

TEST(PipesimCli, MissingFlagArgumentExitsTwo)
{
    // --depth consumes a value; bare at the end it must be rejected,
    // not silently ignored.
    EXPECT_EQ(runPipesim("--workload db1 --depth"), 2);
}

TEST(PipesimCli, UnknownWorkloadExitsTwo)
{
    EXPECT_EQ(runPipesim("--workload no_such_workload --depth 4"), 2);
}

TEST(PipesimCli, NoTraceSourceExitsTwo)
{
    EXPECT_EQ(runPipesim("--depth 4"), 2);
}

TEST(PipesimCli, BothTraceSourcesExitTwo)
{
    EXPECT_EQ(runPipesim("--tape x.tape --workload db1"), 2);
}

TEST(PipesimCli, ZeroLengthExitsNonZeroAndCachesNothing)
{
    // makeTrace(0) means the default length; a cell keyed by length 0
    // would be a second address for that trace's result.
    std::size_t entries = 0;
    EXPECT_NE(
        runPipesimCached("--workload db1 --depth 8 --length 0", &entries),
        0);
    EXPECT_EQ(entries, 0u);
}

TEST(PipesimCli, WarmupNotBelowLengthExitsNonZeroAndCachesNothing)
{
    // Annotation clamps the warmup to the trace, so every warmup at
    // or past the length (here the default 60000) would key one fully
    // warm result at an address of its own.
    std::size_t entries = 0;
    EXPECT_NE(runPipesimCached("--workload db1 --depth 8 --length 1000",
                               &entries),
              0);
    EXPECT_EQ(entries, 0u);
    EXPECT_NE(runPipesimCached(
                  "--workload db1 --depth 8 --length 1000 --warmup 1000",
                  &entries),
              0);
    EXPECT_EQ(entries, 0u);
}

TEST(PipesimCli, WarmupBelowLengthRuns)
{
    std::size_t entries = 0;
    EXPECT_EQ(runPipesimCached(
                  "--workload db1 --depth 8 --length 1000 --warmup 999",
                  &entries),
              0);
    EXPECT_EQ(entries, 1u);
}

/**
 * A 3000-record db1 tape in a fresh temp dir; returns its path.
 * @p edit may change the trace before it is written.
 */
std::string
writeDb1Tape(void (*edit)(Trace &) = nullptr)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("pipedepth-cli-tape-" +
         std::string(
             ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "db1.pptr").string();
    Trace trace = findWorkload("db1").makeTrace(3000);
    if (edit)
        edit(trace);
    writeTrace(trace, path);
    return path;
}

TEST(PipesimCli, TapeWarmupNotBelowLengthExitsNonZeroAndCachesNothing)
{
    // As for --workload: annotation clamps the warmup to the tape, so
    // the default warmup (60000) would key one fully warm result at
    // an address of its own.
    const std::string tape = writeDb1Tape();
    std::size_t entries = 0;
    EXPECT_NE(runPipesimCached("--tape " + tape + " --depth 8", &entries),
              0);
    EXPECT_EQ(entries, 0u);
    EXPECT_NE(runPipesimCached("--tape " + tape + " --depth 8 --warmup 3000",
                               &entries),
              0);
    EXPECT_EQ(entries, 0u);
    std::filesystem::remove_all(std::filesystem::path(tape).parent_path());
}

TEST(PipesimCli, TapeWarmupBelowLengthRuns)
{
    const std::string tape = writeDb1Tape();
    std::size_t entries = 0;
    EXPECT_EQ(runPipesimCached("--tape " + tape + " --depth 8 --warmup 1000",
                               &entries),
              0);
    EXPECT_EQ(entries, 1u);
    std::filesystem::remove_all(std::filesystem::path(tape).parent_path());
}

TEST(PipesimCli, TapeWithOutOfRangeRegisterExitsOneAndCachesNothing)
{
    // The tape's checksum is valid, but record 7 names register
    // kNumRegs, past the walk's register arrays.
    const std::string tape =
        writeDb1Tape([](Trace &t) { t.records[7].src1 = kNumRegs; });
    std::size_t entries = 0;
    EXPECT_EQ(runPipesimCached("--tape " + tape + " --depth 8 --warmup 1000",
                               &entries),
              1);
    EXPECT_EQ(entries, 0u);
    std::filesystem::remove_all(std::filesystem::path(tape).parent_path());
}

/** Run pipesim with @p args; @p out receives its stdout. */
int
runPipesimStdout(const std::string &args, std::string *out)
{
    const std::string cmd =
        std::string(PIPESIM_PATH) + " " + args + " 2>/dev/null";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    out->clear();
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out->append(buf, n);
    const int rc = ::pclose(pipe);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(PipesimCli, StallReportsPrintAnyTapeName)
{
    // A tape's name is free header bytes: --stalls-json must still be
    // valid JSON and carry the name intact.
    const std::string tape =
        writeDb1Tape([](Trace &t) { t.name = "evil\"name\\x"; });
    const std::string run =
        "--tape " + tape + " --depth 8 --warmup 1000 --no-cache";
    std::string out;
    ASSERT_EQ(runPipesimStdout(run + " --stalls-json", &out), 0);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(out, &doc, &error))
        << error << "\n" << out;
    ASSERT_TRUE(doc.find("workload") && doc.find("cycles") &&
                doc.find("residual") && doc.find("buckets"))
        << out;
    EXPECT_EQ(doc.find("workload")->string, "evil\"name\\x");
    EXPECT_EQ(doc.find("residual")->number, 0.0);
    const JsonValue &buckets = *doc.find("buckets");
    EXPECT_EQ(buckets.object.size(), kNumStallBuckets);
    double cycles = 0.0;
    for (const auto &[name, bucket] : buckets.object)
        cycles += bucket.find("cycles")->number;
    EXPECT_EQ(cycles, doc.find("cycles")->number);

    EXPECT_EQ(runPipesim(run + " --stalls"), 0);
    std::filesystem::remove_all(std::filesystem::path(tape).parent_path());
}

TEST(PipesimCli, UnreadableTapeExitsOne)
{
    EXPECT_EQ(runPipesim("--tape /nonexistent/trace.tape --depth 4"), 1);
}

TEST(PipesimCli, BadPredictorExitsTwo)
{
    EXPECT_EQ(
        runPipesim("--workload db1 --predictor oracle"), 2);
}

TEST(PipesimCli, SweepWithThreeLiveDepthsExitsThree)
{
    // Cells 1..21 of 24 quarantine: pipesim prints nothing around the
    // holes.
    std::string hits;
    for (int i = 1; i <= 21; ++i)
        hits += (i > 1 ? "," : "") + std::to_string(i);
    EXPECT_EQ(runPipesim("--workload db1 --sweep --csv --length 2000 "
                         "--warmup 0 --no-cache --threads 1 "
                         "--failpoint "
                         "'sweep.cell.simulate=hits:" +
                         hits + "'"),
              3);
}

} // namespace
} // namespace pipedepth
