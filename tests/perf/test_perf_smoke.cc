/**
 * @file
 * Perf smoke test: the timing walk must not silently lose its
 * throughput. Each check compares two walks in one process, one rep
 * of each in turn, and gates the median of the per-pair rate ratios,
 * so a host that slows down or speeds up during the run moves both
 * sides of every ratio alike. No absolute rate is committed anywhere.
 *
 *  - HotPathThroughputAboveBaseline: the production 1-lane walk
 *    (simulate()) against the scalar reference walk it replaced
 *    (tests/uarch/reference_walk.cc) over the same replays. Losing
 *    the annotated path or a per-instruction allocation creeping back
 *    in puts it below the reference.
 *  - FusedWalkThroughputAboveBaseline: where the CPU has AVX2, the
 *    production 4-lane walk (simulateMultiDepth(), lane groups 4
 *    wide) against the width-1 kernel at 4 lanes
 *    (walk::timingWalk(..., 1)), per lane. A dispatch that silently
 *    falls back to width 1 reads about 1.
 *
 * Replays are prepared and annotated once, untimed; only the walks
 * are timed, in thread CPU time. Set PIPEDEPTH_SKIP_PERF=1 to skip
 * on instrumented builds (the sanitizer CI job does). The margins and
 * the ratios they were set from are in docs/PERFORMANCE.md §4.
 */

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "support/cpu_features.hh"
#include "sweep/depth_sweep.hh"
#include "trace/replay_buffer.hh"
#include "uarch/multi_depth_walk.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/reference_walk.hh"
#include "uarch/simulator.hh"
#include "uarch/walk_state.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

/** The production 1-lane walk must run at least this fraction of the
 *  reference walk's rate. */
constexpr double kMinOneLaneRatio = 0.9;
/** The AVX2 4-lane walk must run at least this multiple of the
 *  width-1 kernel's per-lane rate at 4 lanes. */
constexpr double kMinLaneGroupRatio = 1.5;
/** Pairs of alternating reps per check. */
constexpr int kPairs = 7;

constexpr std::size_t kTraceLength = 30000;
const int kDepths[] = {2, 7, 14, 25};
const char *kSampleWorkloads[] = {"db1", "gcc95", "swim", "mcf00"};

struct Prepared
{
    ReplayBuffer replay;
    ReplayAnnotations annotations;
};

struct Sample
{
    std::vector<PipelineConfig> configs; //!< the golden depths
    std::vector<Prepared> prepared;
};

/** The four sample workloads, prepared and annotated. */
const Sample &
sample()
{
    static const Sample s = [] {
        Sample out;
        SweepOptions opt;
        opt.trace_length = kTraceLength;
        opt.warmup_instructions = 10000;
        for (int p : kDepths)
            out.configs.push_back(opt.configAtDepth(p));
        for (const char *name : kSampleWorkloads) {
            Prepared p;
            p.replay =
                prepareReplay(findWorkload(name).makeTrace(kTraceLength));
            p.annotations = annotateReplay(p.replay, out.configs.front());
            out.prepared.push_back(std::move(p));
        }
        return out;
    }();
    return s;
}

/** Thread CPU seconds. */
double
threadSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** One pass of @p walk over the sample; returns lane-instructions
 *  per CPU second. @p walk returns the instructions it retired. */
double
rate(const std::function<std::uint64_t(const Prepared &)> &walk)
{
    const std::vector<Prepared> &prepared = sample().prepared;
    std::uint64_t instructions = 0;
    const double t0 = threadSeconds();
    for (const Prepared &p : prepared)
        instructions += walk(p);
    return static_cast<double>(instructions) / (threadSeconds() - t0);
}

/**
 * Median over kPairs of rate(@p measured) / rate(@p baseline), the
 * two walked one after the other, the order alternating by pair.
 */
double
medianRatio(const std::function<std::uint64_t(const Prepared &)> &measured,
            const std::function<std::uint64_t(const Prepared &)> &baseline)
{
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
        double m = 0;
        double b = 0;
        if (pair % 2 == 0) {
            m = rate(measured);
            b = rate(baseline);
        } else {
            b = rate(baseline);
            m = rate(measured);
        }
        ratios.push_back(m / b);
    }
    std::sort(ratios.begin(), ratios.end());
    std::printf("ratios:");
    for (double r : ratios)
        std::printf(" %.3f", r);
    std::printf(" (median %.3f)\n", ratios[ratios.size() / 2]);
    return ratios[ratios.size() / 2];
}

/** @p lanes' results' retired instructions. */
std::uint64_t
retired(const std::vector<SimResult> &lanes)
{
    std::uint64_t n = 0;
    for (const SimResult &r : lanes)
        n += r.instructions;
    return n;
}

TEST(PerfSmoke, HotPathThroughputAboveBaseline)
{
    if (std::getenv("PIPEDEPTH_SKIP_PERF") != nullptr)
        GTEST_SKIP() << "PIPEDEPTH_SKIP_PERF set";

    const std::vector<PipelineConfig> &configs = sample().configs;
    const double ratio = medianRatio(
        [&](const Prepared &p) {
            std::uint64_t n = 0;
            for (const PipelineConfig &c : configs)
                n += simulate(p.replay, p.annotations, c).instructions;
            return n;
        },
        [&](const Prepared &p) {
            std::uint64_t n = 0;
            for (const PipelineConfig &c : configs)
                n += referenceSimulate(p.replay, p.annotations, c)
                         .instructions;
            return n;
        });
    EXPECT_GE(ratio, kMinOneLaneRatio)
        << "the 1-lane walk ran at " << ratio
        << " x the scalar reference walk's rate, below the "
        << kMinOneLaneRatio << " floor; see docs/PERFORMANCE.md §4";
}

TEST(PerfSmoke, FusedWalkThroughputAboveBaseline)
{
    if (std::getenv("PIPEDEPTH_SKIP_PERF") != nullptr)
        GTEST_SKIP() << "PIPEDEPTH_SKIP_PERF set";
    if (!cpuRunsLaneWidth(4))
        GTEST_SKIP() << "lane width 4 needs " << laneWidthIsa(4)
                     << ", which this CPU lacks";

    const std::vector<PipelineConfig> &configs = sample().configs;
    const double ratio = medianRatio(
        [&](const Prepared &p) {
            return retired(
                simulateMultiDepth(p.replay, p.annotations, configs));
        },
        [&](const Prepared &p) {
            std::vector<SimResult> out(configs.size());
            walk::timingWalk(p.replay, p.annotations, configs, out, 1);
            return retired(out);
        });
    EXPECT_GE(ratio, kMinLaneGroupRatio)
        << "the 4-lane walk ran at " << ratio
        << " x the width-1 kernel's rate at 4 lanes, below the "
        << kMinLaneGroupRatio
        << " floor: has the dispatch fallen back to width 1? See "
           "docs/PERFORMANCE.md §4";
}

} // namespace
} // namespace pipedepth
