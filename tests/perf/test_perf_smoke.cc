/**
 * @file
 * Perf smoke test: the simulator hot path must not silently lose its
 * throughput. A committed baseline (perf_baseline.inc) pins the
 * instructions/second of the replay pipeline's measured section —
 * prepareReplay + annotateReplay once per workload, then the timing
 * walk at the golden depths — and the test fails when the median of
 * three repetitions drops below 75% of it.
 *
 * Both the baseline and the margin are deliberately loose (the
 * combined trip point is ~40% below the tuning-time measurement), so
 * a failure indicates a genuine hot-path regression — an accidental
 * fallback off the annotated path, a per-instruction allocation
 * creeping back in — not machine noise. Set PIPEDEPTH_SKIP_PERF=1 to
 * skip on known-slow or heavily shared machines (the sanitizer CI
 * job does).
 *
 * The DISABLED_ test prints the median so a maintainer can refresh
 * the baseline; docs/PERFORMANCE.md has the procedure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "sweep/depth_sweep.hh"
#include "trace/replay_buffer.hh"
#include "uarch/multi_depth_walk.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/simulator.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

#include "perf_baseline.inc"

constexpr double kAllowedFraction = 0.75;
constexpr std::size_t kTraceLength = 30000;
const int kDepths[] = {2, 7, 14, 25};
const char *kSampleWorkloads[] = {"db1", "gcc95", "swim", "mcf00"};

using Clock = std::chrono::steady_clock;

/** Median instructions/second of @p reps passes over the sample.
 *  With @p fused, the timing walk is one 4-lane pass per workload
 *  (simulateMultiDepth, the production path) instead of one 1-lane
 *  walk (simulate) per depth. */
double
measuredInstructionsPerSecond(int reps, bool fused)
{
    SweepOptions opt;
    opt.trace_length = kTraceLength;
    opt.warmup_instructions = 10000;
    std::vector<PipelineConfig> configs;
    for (int p : kDepths)
        configs.push_back(opt.configAtDepth(p));

    // Traces are synthesized outside the timed section: trace
    // generation is not the hot path under test.
    std::vector<Trace> traces;
    for (const char *name : kSampleWorkloads)
        traces.push_back(findWorkload(name).makeTrace(kTraceLength));

    std::vector<double> ips;
    for (int rep = 0; rep < reps; ++rep) {
        std::uint64_t instructions = 0;
        const auto t0 = Clock::now();
        for (const Trace &trace : traces) {
            const ReplayBuffer replay = prepareReplay(trace);
            const ReplayAnnotations ann =
                annotateReplay(replay, configs.front());
            if (fused) {
                for (const SimResult &r :
                     simulateMultiDepth(replay, ann, configs))
                    instructions += r.instructions;
            } else {
                for (const PipelineConfig &cfg : configs)
                    instructions +=
                        simulate(replay, ann, cfg).instructions;
            }
        }
        const double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        ips.push_back(static_cast<double>(instructions) / seconds);
    }
    std::sort(ips.begin(), ips.end());
    return ips[ips.size() / 2];
}

TEST(PerfSmoke, HotPathThroughputAboveBaseline)
{
    if (std::getenv("PIPEDEPTH_SKIP_PERF") != nullptr)
        GTEST_SKIP() << "PIPEDEPTH_SKIP_PERF set";

    const double measured =
        measuredInstructionsPerSecond(3, /*fused=*/false);
    const double floor =
        kAllowedFraction * kBaselineInstructionsPerSecond;
    EXPECT_GE(measured, floor)
        << "hot-path throughput regressed: measured " << measured
        << " instructions/s against a floor of " << floor << " ("
        << kAllowedFraction << " x committed baseline "
        << kBaselineInstructionsPerSecond
        << "); see docs/PERFORMANCE.md before touching the baseline";
}

TEST(PerfSmoke, FusedWalkThroughputAboveBaseline)
{
    if (std::getenv("PIPEDEPTH_SKIP_PERF") != nullptr)
        GTEST_SKIP() << "PIPEDEPTH_SKIP_PERF set";

    const double measured =
        measuredInstructionsPerSecond(3, /*fused=*/true);
    const double floor =
        kAllowedFraction * kBaselineFusedInstructionsPerSecond;
    EXPECT_GE(measured, floor)
        << "fused-walk throughput regressed: measured " << measured
        << " instructions/s against a floor of " << floor << " ("
        << kAllowedFraction << " x committed baseline "
        << kBaselineFusedInstructionsPerSecond
        << "); a fall back to the per-depth path costs far more than "
        << "this margin — see docs/PERFORMANCE.md";
}

// Manual helper, excluded from normal runs: prints the measurements
// so the committed baselines can be refreshed deliberately.
TEST(PerfSmoke, DISABLED_PrintMeasuredThroughput)
{
    const double reference =
        measuredInstructionsPerSecond(5, /*fused=*/false);
    const double fused =
        measuredInstructionsPerSecond(5, /*fused=*/true);
    std::printf("median hot-path throughput: %.0f instructions/s\n"
                "suggested baseline (x0.75): %.0f\n"
                "median fused-walk throughput: %.0f instructions/s\n"
                "suggested fused baseline (x0.75): %.0f\n",
                reference, 0.75 * reference, fused, 0.75 * fused);
}

} // namespace
} // namespace pipedepth
