/**
 * @file
 * bench_sim_throughput — measure timing-walk throughput by lane count
 * and emit it as JSON.
 *
 * Usage:
 *   bench_sim_throughput [--output FILE] [--workloads N] [--reps N]
 *                        [--trace-length N] [--verbose]
 *                        [--baseline FILE]
 *
 * The bench answers one question the repo benchmark (perfbench/) does
 * not isolate: how fast the one timing walk runs at the lane counts
 * that matter — 1 (simulate()), 4 (the golden depths) and 24 (a full
 * sweep). It prepares and annotates a sample of catalog workloads
 * once, then walks each prepared replay at depths 2..25 in groups of
 * 1, 4 and 24 lanes (24 simulate() calls, 6 four-lane calls or 1 call
 * per workload), the three lane counts interleaved within each rep.
 * Every walk must retire lanes x replay size instructions. Each lane
 * count is reported as min, median and p90 (nearest rank) of its
 * lane-instructions per second over the reps, and with the lane-group
 * width it ran at (the sim.walk.lane_width gauge: with AVX2, 4 for 4
 * lanes and for 24 unless AVX-512F makes it 8; else 1), so every
 * number names the kernel that produced it. Trace generation,
 * replay preparation, annotation and the engine's cache are timed
 * per layer by perfbench, not here.
 *
 * The output is stamped with a schema_version and the git revision of
 * the build. --baseline FILE turns the bench into a regression gate
 * against a committed baseline (normally BENCH_sim_throughput.json):
 * before measuring anything it fails fast (exit 1) when the baseline
 * predates the current schema — the signal that the baseline must be
 * regenerated, not compared against — and after measuring it fails
 * (exit 1) when the 4-lane median drops more than 20% below the
 * baseline's walk_lane_curve 4-lane median.
 *
 * Output (stdout and, with --output, FILE) is one JSON object; the
 * checked-in BENCH_sim_throughput.json at the repo root is a run of
 * this bench — see docs/PERFORMANCE.md for the methodology and how
 * to refresh it.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sweep/depth_sweep.hh"
#include "telemetry/build_info.hh"
#include "telemetry/metrics.hh"
#include "trace/replay_buffer.hh"
#include "uarch/multi_depth_walk.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/simulator.hh"
#include "workloads/catalog.hh"

using namespace pipedepth;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Version of this bench's output schema; mirrored into the JSON as
 * "schema_version". Bump when a field is removed, renamed or
 * re-typed, so stale committed baselines are rejected instead of
 * silently compared.
 */
constexpr int kBenchSchemaVersion = 6;

/**
 * Allowed 4-lane throughput loss against the committed baseline
 * before --baseline fails the run: generous enough for scheduler
 * noise on a shared machine, tight enough to catch an accidental
 * fallback off the multi-lane walk.
 */
constexpr double kRegressionTolerance = 0.20;

/** Lane counts of the walk curve: simulate(), the golden depths'
 *  group and a full 24-depth sweep group. */
constexpr std::size_t kCurveLanes[] = {1, 4, 24};

/** The lane count --baseline gates on. */
constexpr std::size_t kGatedLanes = 4;

/** Exit 1 unless @p path is a baseline of the current schema;
 *  returns the baseline's gated lane-count median. */
double
checkBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "baseline '%s' is unreadable\n",
                     path.c_str());
        std::exit(1);
    }
    std::ostringstream text;
    text << in.rdbuf();

    JsonValue doc;
    std::string error;
    if (!JsonValue::parse(text.str(), &doc, &error)) {
        std::fprintf(stderr, "baseline '%s' is not valid JSON: %s\n",
                     path.c_str(), error.c_str());
        std::exit(1);
    }
    const JsonValue *version = doc.find("schema_version");
    const int found =
        version && version->isNumber() ? static_cast<int>(version->number)
                                       : 0;
    if (found != kBenchSchemaVersion) {
        std::fprintf(stderr,
                     "baseline '%s' has schema_version %d, current is "
                     "%d: regenerate it (see docs/PERFORMANCE.md) "
                     "before comparing\n",
                     path.c_str(), found, kBenchSchemaVersion);
        std::exit(1);
    }
    const JsonValue *curve = doc.find("walk_lane_curve");
    const JsonValue *ips =
        curve ? curve->find("instructions_per_second") : nullptr;
    const JsonValue *lane =
        ips ? ips->find(std::to_string(kGatedLanes)) : nullptr;
    const JsonValue *median = lane ? lane->find("median") : nullptr;
    if (!median || !median->isNumber() || median->number <= 0) {
        std::fprintf(stderr,
                     "baseline '%s' lacks a positive walk_lane_curve "
                     "%zu-lane median: regenerate it (see "
                     "docs/PERFORMANCE.md)\n",
                     path.c_str(), kGatedLanes);
        std::exit(1);
    }
    return median->number;
}

/** The nearest-rank @p q quantile, 0 < q <= 1, of @p sorted
 *  (ascending). */
double
nearestRank(const std::vector<double> &sorted, double q)
{
    PP_ASSERT(!sorted.empty(), "quantile of nothing");
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[rank - 1];
}

struct Prepared
{
    ReplayBuffer replay;
    ReplayAnnotations annotations;
};

/**
 * Walk every prepared replay under @p sweep in consecutive groups of
 * @p lanes configurations (1 lane: simulate() per configuration);
 * returns lane-instructions per second.
 */
double
walkLaneIps(const std::vector<Prepared> &prepared,
            const std::vector<PipelineConfig> &sweep, std::size_t lanes)
{
    PP_ASSERT(sweep.size() % lanes == 0, "lanes must divide the sweep");
    std::uint64_t instructions = 0;
    const auto t0 = Clock::now();
    for (const Prepared &p : prepared) {
        for (std::size_t b = 0; b < sweep.size(); b += lanes) {
            std::uint64_t retired = 0;
            if (lanes == 1) {
                retired =
                    simulate(p.replay, p.annotations, sweep[b]).instructions;
            } else {
                const std::vector<PipelineConfig> group(
                    sweep.begin() + static_cast<std::ptrdiff_t>(b),
                    sweep.begin() + static_cast<std::ptrdiff_t>(b + lanes));
                for (const SimResult &r :
                     simulateMultiDepth(p.replay, p.annotations, group))
                    retired += r.instructions;
            }
            PP_ASSERT(retired == lanes * p.replay.size(), "a ", lanes,
                      "-lane walk retired ", retired, " instructions");
            instructions += retired;
        }
    }
    return static_cast<double>(instructions) /
           std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string output;
    std::string baseline;
    std::size_t n_workloads = 12;
    std::size_t trace_length = 30000;
    int reps = 5;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--output" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline = argv[++i];
        } else if (arg == "--workloads" && i + 1 < argc) {
            n_workloads = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (arg == "--trace-length" && i + 1 < argc) {
            trace_length = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--output FILE] [--workloads N] "
                         "[--reps N] [--trace-length N] [--verbose] "
                         "[--baseline FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (reps < 1)
        reps = 1;
    double baseline_median = 0.0;
    if (!baseline.empty())
        baseline_median = checkBaseline(baseline);

    // Spread the sample across the catalog so every workload class
    // (legacy, online, spec-int-like, fp, ...) is represented.
    const std::vector<WorkloadSpec> catalog = workloadCatalog();
    std::vector<WorkloadSpec> sample;
    const std::size_t stride =
        std::max<std::size_t>(1, catalog.size() / n_workloads);
    for (std::size_t i = 0; i < catalog.size() && sample.size() < n_workloads;
         i += stride)
        sample.push_back(catalog[i]);

    SweepOptions opt;
    opt.trace_length = trace_length;
    opt.warmup_instructions = 10000;
    std::vector<PipelineConfig> sweep;
    for (int p = 2; p <= 25; ++p)
        sweep.push_back(opt.configAtDepth(p));

    // Annotations depend only on the trace-order microarch state, so
    // one set serves every depth; only the walk is timed.
    std::vector<Prepared> prepared;
    for (const WorkloadSpec &spec : sample) {
        Prepared p;
        p.replay = spec.makeReplay(trace_length);
        p.annotations = annotateReplay(p.replay, sweep.front());
        prepared.push_back(std::move(p));
    }

    // The walk sets this gauge to its lane-group width on every pass.
    const Gauge &lane_width =
        MetricsRegistry::instance().gauge("sim.walk.lane_width");
    std::vector<std::vector<double>> curve(std::size(kCurveLanes));
    std::vector<std::int64_t> widths(std::size(kCurveLanes), 0);
    for (int r = 0; r < reps; ++r) {
        for (std::size_t k = 0; k < std::size(kCurveLanes); ++k) {
            curve[k].push_back(walkLaneIps(prepared, sweep, kCurveLanes[k]));
            widths[k] = lane_width.value();
        }
        if (verbose)
            std::fprintf(stderr,
                         "rep %d: walk IPS 1 lane %.0f, 4 lanes %.0f, "
                         "24 lanes %.0f\n",
                         r, curve[0].back(), curve[1].back(),
                         curve[2].back());
    }

    // --- JSON --------------------------------------------------------
    std::string json;
    char buf[512];
    auto add = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        json += buf;
    };
    add("{\n");
    add("  \"schema_version\": %d,\n", kBenchSchemaVersion);
    add("  \"git\": %s,\n", jsonQuote(gitDescribe()).c_str());
    add("  \"methodology\": \"docs/PERFORMANCE.md\",\n");
    add("  \"workloads\": %zu,\n", sample.size());
    add("  \"trace_length\": %zu,\n", trace_length);
    add("  \"reps\": %d,\n", reps);
    add("  \"walk_lane_curve\": {\n");
    add("    \"depths\": \"2..25\",\n");
    add("    \"instructions_per_second\": {\n");
    double gated_median = 0.0;
    for (std::size_t k = 0; k < std::size(kCurveLanes); ++k) {
        std::vector<double> &v = curve[k];
        std::sort(v.begin(), v.end());
        const double median = nearestRank(v, 0.5);
        if (kCurveLanes[k] == kGatedLanes)
            gated_median = median;
        add("      \"%zu\": {\"min\": %.0f, \"median\": %.0f, "
            "\"p90\": %.0f}%s\n",
            kCurveLanes[k], v.front(), median, nearestRank(v, 0.9),
            k + 1 < std::size(kCurveLanes) ? "," : "");
    }
    add("    },\n");
    add("    \"lane_width\": {");
    for (std::size_t k = 0; k < std::size(kCurveLanes); ++k)
        add("%s\"%zu\": %lld", k ? ", " : "", kCurveLanes[k],
            static_cast<long long>(widths[k]));
    add("}\n");
    add("  }\n");
    add("}\n");

    std::fputs(json.c_str(), stdout);
    if (!output.empty()) {
        std::FILE *f = std::fopen(output.c_str(), "w");
        if (!f)
            PP_FATAL("cannot write '", output, "'");
        std::fputs(json.c_str(), f);
        std::fclose(f);
    }

    // --- regression gate ---------------------------------------------
    if (baseline_median > 0) {
        const double floor = (1.0 - kRegressionTolerance) * baseline_median;
        if (gated_median < floor) {
            std::fprintf(stderr,
                         "WALK REGRESSION: %zu-lane median %.0f "
                         "instructions/s against a floor of %.0f "
                         "(baseline %.0f minus %.0f%% tolerance) — "
                         "see docs/PERFORMANCE.md\n",
                         kGatedLanes, gated_median, floor, baseline_median,
                         100.0 * kRegressionTolerance);
            return 1;
        }
        std::fprintf(stderr,
                     "%zu-lane walk within baseline: %.0f >= %.0f "
                     "instructions/s\n",
                     kGatedLanes, gated_median, floor);
    }
    return 0;
}
