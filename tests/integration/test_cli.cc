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
 *   3  a sweep that completed around quarantined cells (holes)
 *
 * The binary path arrives via the PIPESIM_PATH compile definition
 * (set from $<TARGET_FILE:pipesim> in tests/CMakeLists.txt); the
 * tests spawn it through std::system with stdout/stderr discarded.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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

// Keep runs tiny: depth 4, short trace, no warmup, no cache traffic.
const char *kQuickRun =
    "--workload db1 --depth 4 --length 2000 --warmup 0 "
    "--no-cache";

TEST(PipesimCli, SuccessfulRunExitsZero)
{
    EXPECT_EQ(runPipesim(kQuickRun), 0);
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
    // Cells 1..21 of 24 quarantine, leaving depths 23..25: too few
    // for a cubic, so the optimum reads "none" — the sweep still
    // completes around its holes.
    std::string hits;
    for (int i = 1; i <= 21; ++i)
        hits += (i > 1 ? "," : "") + std::to_string(i);
    EXPECT_EQ(runPipesim("--workload db1 --sweep --csv --length 2000 "
                         "--warmup 0 --no-cache --threads 1 "
                         "--max-retries 0 --failpoint "
                         "'sweep.cell.simulate=hits:" +
                         hits + "'"),
              3);
}

} // namespace
} // namespace pipedepth
