/**
 * @file
 * bench_sim_throughput — measure simulator hot-path throughput and
 * emit it as JSON for the perf harness.
 *
 * Usage:
 *   bench_sim_throughput [--output FILE] [--workloads N] [--reps N]
 *                        [--trace-length N] [--verbose]
 *                        [--baseline FILE]
 *
 * The output is stamped with a schema_version and the git revision of
 * the build. --baseline FILE turns the bench into a regression gate
 * against a committed baseline (normally BENCH_sim_throughput.json):
 * before measuring anything it fails fast (exit 1) when the baseline
 * predates the current schema — the signal that the baseline must be
 * regenerated, not compared against — and after measuring it fails
 * (exit 1) when the fused-walk throughput drops more than 20% below
 * the baseline's.
 *
 * The bench times the replay pipeline phase by phase on a sample of
 * catalog workloads across the golden depths {2, 7, 14, 25}:
 *
 *   trace_gen   synthesize the instruction trace
 *   prepare     flatten the trace into the contiguous ReplayBuffer
 *   annotate    precompute the depth-invariant microarchitectural
 *               annotations (caches, predictor, store forwarding)
 *   timing_walk one 1-lane walk (simulate()) per depth
 *   fused_walk  one 4-lane walk (simulateMultiDepth()) over all four
 *
 * It then times the walk alone as a lane-count curve: the sample's
 * prepared replays walked at depths 2..25 in groups of 1, 4 and 24
 * lanes (24 simulate() calls, 6 four-lane calls or 1 call per
 * workload), reported as median, min and max over the reps. Last it
 * times a SweepEngine grid twice against a private cache directory
 * (cold = simulate + store, warm = replay from disk). Each phase and
 * engine figure is the median of --reps repetitions.
 *
 * Output (stdout and, with --output, FILE) is one JSON object; the
 * checked-in BENCH_sim_throughput.json at the repo root is a run of
 * this bench — see docs/PERFORMANCE.md for the methodology and how
 * to refresh it.
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sweep/sweep_engine.hh"
#include "telemetry/build_info.hh"
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
constexpr int kBenchSchemaVersion = 4;

/**
 * Allowed fused-walk throughput loss against the committed baseline
 * before --baseline fails the run: generous enough for scheduler
 * noise on a shared machine, tight enough to catch an accidental
 * fallback off the fused path (which costs ~4x, not 20%).
 */
constexpr double kRegressionTolerance = 0.20;

/** Exit 1 unless @p path is a baseline of the current schema;
 *  returns the baseline's fused-walk instructions/second. */
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
    const JsonValue *fused =
        doc.find("fused_walk_instructions_per_second");
    if (!fused || !fused->isNumber() || fused->number <= 0) {
        std::fprintf(stderr,
                     "baseline '%s' lacks a positive "
                     "fused_walk_instructions_per_second: regenerate "
                     "it (see docs/PERFORMANCE.md)\n",
                     path.c_str());
        std::exit(1);
    }
    return fused->number;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    PP_ASSERT(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

struct PhaseSeconds
{
    double trace_gen = 0.0;
    double prepare = 0.0;
    double annotate = 0.0;
    double timing_walk = 0.0;
    double fused_walk = 0.0;

    /** End-to-end seconds of the production path (fused walk); the
     *  1-lane walks are timed for comparison but not part of it. */
    double
    total() const
    {
        return trace_gen + prepare + annotate + fused_walk;
    }
};

/** Lane counts of the walk curve: simulate(), the golden depths'
 *  group and a full 24-depth sweep group. */
constexpr std::size_t kCurveLanes[] = {1, 4, 24};

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
        if (lanes == 1) {
            for (const PipelineConfig &cfg : sweep)
                instructions +=
                    simulate(p.replay, p.annotations, cfg).instructions;
            continue;
        }
        for (std::size_t b = 0; b < sweep.size(); b += lanes) {
            const std::vector<PipelineConfig> group(
                sweep.begin() + static_cast<std::ptrdiff_t>(b),
                sweep.begin() + static_cast<std::ptrdiff_t>(b + lanes));
            for (const SimResult &r :
                 simulateMultiDepth(p.replay, p.annotations, group))
                instructions += r.instructions;
        }
    }
    return static_cast<double>(instructions) / secondsSince(t0);
}

/** One full pass over the sample: every phase timed separately.
 *  Returns the instructions retired by the timing walks. */
PhaseSeconds
runPhases(const std::vector<WorkloadSpec> &sample,
          const std::vector<PipelineConfig> &configs,
          std::size_t trace_length, std::uint64_t *instructions)
{
    PhaseSeconds s;
    *instructions = 0;
    for (const WorkloadSpec &spec : sample) {
        auto t0 = Clock::now();
        const Trace trace = spec.makeTrace(trace_length);
        s.trace_gen += secondsSince(t0);

        t0 = Clock::now();
        const ReplayBuffer replay = prepareReplay(trace);
        s.prepare += secondsSince(t0);

        // Annotations depend only on the trace-order microarch state,
        // so one set serves every depth (that sharing is the hot-path
        // win being measured).
        t0 = Clock::now();
        const ReplayAnnotations ann =
            annotateReplay(replay, configs.front());
        s.annotate += secondsSince(t0);

        t0 = Clock::now();
        for (const PipelineConfig &cfg : configs) {
            const SimResult r = simulate(replay, ann, cfg);
            *instructions += r.instructions;
        }
        s.timing_walk += secondsSince(t0);

        t0 = Clock::now();
        const std::vector<SimResult> fused =
            simulateMultiDepth(replay, ann, configs);
        s.fused_walk += secondsSince(t0);
        std::uint64_t fused_instructions = 0;
        for (const SimResult &r : fused)
            fused_instructions += r.instructions;
        PP_ASSERT(fused_instructions ==
                      static_cast<std::uint64_t>(configs.size()) *
                          replay.size(),
                  "fused walk retired a different instruction count");
    }
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string output;
    std::string baseline;
    std::size_t n_workloads = 12;
    std::size_t trace_length = 30000;
    int reps = 3;
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
    double baseline_fused_ips = 0.0;
    if (!baseline.empty())
        baseline_fused_ips = checkBaseline(baseline);

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
    std::vector<PipelineConfig> configs;
    for (int p : {2, 7, 14, 25})
        configs.push_back(opt.configAtDepth(p));

    // --- direct phase breakdown (median over reps) -------------------
    std::vector<double> gen_s, prep_s, ann_s, walk_s, fused_s, total_s;
    std::uint64_t instructions = 0;
    for (int r = 0; r < reps; ++r) {
        const PhaseSeconds s =
            runPhases(sample, configs, trace_length, &instructions);
        gen_s.push_back(s.trace_gen);
        prep_s.push_back(s.prepare);
        ann_s.push_back(s.annotate);
        walk_s.push_back(s.timing_walk);
        fused_s.push_back(s.fused_walk);
        total_s.push_back(s.total());
        if (verbose)
            std::fprintf(stderr,
                         "rep %d: gen %.3fs prepare %.3fs annotate "
                         "%.3fs walk %.3fs fused %.3fs\n",
                         r, s.trace_gen, s.prepare, s.annotate,
                         s.timing_walk, s.fused_walk);
    }
    const double walk_med = median(walk_s);
    const double fused_med = median(fused_s);
    const double total_med = median(total_s);
    const double walk_ips =
        static_cast<double>(instructions) / walk_med;
    const double fused_ips =
        static_cast<double>(instructions) / fused_med;
    const double total_ips =
        static_cast<double>(instructions) / total_med;

    // --- engine cold vs warm cache -----------------------------------
    const auto cache_dir =
        std::filesystem::temp_directory_path() /
        ("pipedepth-bench-throughput-" + std::to_string(::getpid()));
    std::filesystem::remove_all(cache_dir);
    SweepEngineOptions eng_opt;
    eng_opt.cache_dir = cache_dir.string();

    std::vector<double> cold_s, warm_s;
    std::uint64_t cold_instr = 0;
    for (int r = 0; r < reps; ++r) {
        std::filesystem::remove_all(cache_dir);
        SweepEngine cold(eng_opt);
        auto t0 = Clock::now();
        for (const WorkloadSpec &spec : sample)
            cold.runConfigs(spec.makeTrace(trace_length), configs);
        cold_s.push_back(secondsSince(t0));
        cold_instr = cold.counters().instructions_simulated;

        SweepEngine warm(eng_opt);
        t0 = Clock::now();
        for (const WorkloadSpec &spec : sample)
            warm.runConfigs(spec.makeTrace(trace_length), configs);
        warm_s.push_back(secondsSince(t0));
        PP_ASSERT(warm.counters().cells_computed == 0,
                  "warm pass was not fully served from cache");
    }
    std::filesystem::remove_all(cache_dir);

    const double cold_med = median(cold_s);
    const double warm_med = median(warm_s);

    // --- walk lane-count curve ---------------------------------------
    std::vector<Prepared> prepared;
    for (const WorkloadSpec &spec : sample) {
        Prepared p;
        p.replay = prepareReplay(spec.makeTrace(trace_length));
        p.annotations = annotateReplay(p.replay, configs.front());
        prepared.push_back(std::move(p));
    }
    std::vector<PipelineConfig> sweep;
    for (int p = 2; p <= 25; ++p)
        sweep.push_back(opt.configAtDepth(p));
    std::vector<std::vector<double>> curve(std::size(kCurveLanes));
    for (int r = 0; r < reps; ++r) {
        for (std::size_t k = 0; k < std::size(kCurveLanes); ++k)
            curve[k].push_back(walkLaneIps(prepared, sweep, kCurveLanes[k]));
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
    add("  \"depths\": [2, 7, 14, 25],\n");
    add("  \"trace_length\": %zu,\n", trace_length);
    add("  \"reps\": %d,\n", reps);
    add("  \"instructions_per_rep\": %llu,\n",
        static_cast<unsigned long long>(instructions));
    add("  \"phase_seconds\": {\n");
    add("    \"trace_gen\": %.6f,\n", median(gen_s));
    add("    \"prepare_replay\": %.6f,\n", median(prep_s));
    add("    \"annotate\": %.6f,\n", median(ann_s));
    add("    \"timing_walk\": %.6f,\n", walk_med);
    add("    \"fused_walk\": %.6f,\n", fused_med);
    add("    \"total\": %.6f\n", total_med);
    add("  },\n");
    add("  \"timing_walk_instructions_per_second\": %.0f,\n", walk_ips);
    add("  \"fused_walk_instructions_per_second\": %.0f,\n", fused_ips);
    add("  \"fused_speedup_over_reference_walk\": %.2f,\n",
        walk_med / fused_med);
    add("  \"end_to_end_instructions_per_second\": %.0f,\n", total_ips);
    add("  \"engine_cold_cache\": {\n");
    add("    \"wall_seconds\": %.6f,\n", cold_med);
    add("    \"instructions_per_second\": %.0f\n",
        static_cast<double>(cold_instr) / cold_med);
    add("  },\n");
    add("  \"engine_warm_cache\": {\n");
    add("    \"wall_seconds\": %.6f,\n", warm_med);
    add("    \"speedup_over_cold\": %.2f\n", cold_med / warm_med);
    add("  },\n");
    add("  \"walk_lane_curve\": {\n");
    add("    \"depths\": \"2..25\",\n");
    add("    \"instructions_per_second\": {\n");
    for (std::size_t k = 0; k < std::size(kCurveLanes); ++k) {
        const std::vector<double> &v = curve[k];
        add("      \"%zu\": {\"median\": %.0f, \"min\": %.0f, "
            "\"max\": %.0f}%s\n",
            kCurveLanes[k], median(v), *std::min_element(v.begin(), v.end()),
            *std::max_element(v.begin(), v.end()),
            k + 1 < std::size(kCurveLanes) ? "," : "");
    }
    add("    }\n");
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
    if (baseline_fused_ips > 0) {
        const double floor =
            (1.0 - kRegressionTolerance) * baseline_fused_ips;
        if (fused_ips < floor) {
            std::fprintf(stderr,
                         "FUSED-WALK REGRESSION: measured %.0f "
                         "instructions/s against a floor of %.0f "
                         "(baseline %.0f minus %.0f%% tolerance) — "
                         "see docs/PERFORMANCE.md\n",
                         fused_ips, floor, baseline_fused_ips,
                         100.0 * kRegressionTolerance);
            return 1;
        }
        std::fprintf(stderr,
                     "fused walk within baseline: %.0f >= %.0f "
                     "instructions/s\n",
                     fused_ips, floor);
    }
    return 0;
}
