/**
 * @file
 * perfbench — the repository benchmark harness (see README.md).
 *
 * Usage:
 *   perfbench run --workload W --seed N --seconds S --trace 0|1
 *                 --root DIR --work-dir DIR --daemon PIPESIMD
 *                 [--tiny] [--golden-table FILE]
 *   perfbench digest --root DIR --work-dir DIR
 *
 * `run` prints "# " note lines and then, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. It exits 0
 * when every output verified, 1 on a mismatch, 2 on bad usage or a
 * refused environment, 3 when the run itself broke.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include <sched.h>

#include "common/json.hh"
#include "perfbench.hh"
#include "telemetry/build_info.hh"
#include "telemetry/telemetry.hh"

using namespace perfbench;

namespace
{

/** End-to-end metrics, in print order (BENCHMARK.json end_to_end). */
const char *const kEndToEnd[] = {"setup_s",     "sim_mips", "call_p50_ms",
                                 "call_p95_ms", "ok_ratio", "peak_rss_mb"};

/** Per-layer metrics, in print order (BENCHMARK.json per_layer). */
const char *const kPerLayer[] = {
    "trace.generate_s",       "trace.prepare_s",
    "uarch.annotate_s",       "uarch.walk_s",
    "uarch.walk_mips",        "uarch.walk_lanes",
    "sweep.key_s",            "sweep.cache_load_s",
    "sweep.cache_loads",      "sweep.cache_hit_ratio",
    "sweep.cache_store_s",    "sweep.cache_stores",
    "sweep.warm_pass_s",
    "calib.extract_s",        "core.fit_s",
    "sweep.engine_cpu_s",     "sweep.cpu_util",
    "sweep.residual_s",       "server.parse_us",
    "server.queue_p99_ms",    "server.batch_p50_ms",
    "server.engine_p50_ms",   "server.serialize_p50_ms",
    "server.unattributed_p50_ms", "server.requests_per_pass",
    "bench.untraced_wall_s",  "bench.traced_wall_s"};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench run --workload W --seed N --seconds S "
                 "--trace 0|1\n"
                 "                 --root DIR --work-dir DIR --daemon "
                 "PIPESIMD\n"
                 "                 [--tiny] [--golden-table FILE]\n"
                 "       perfbench digest --root DIR --work-dir DIR\n");
    return 2;
}

unsigned
onlineCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 1;
}

/**
 * Refuse settings that would silently measure a different program:
 * the fused-walk kill switch, armed failpoints, span tracing.
 */
bool
environmentClean()
{
    bool clean = true;
    for (const char *var : {"PIPEDEPTH_FUSED_WALK", "PIPEDEPTH_FAILPOINTS"}) {
        if (std::getenv(var)) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         var);
            clean = false;
        }
    }
    if (pipedepth::SpanTracer::instance().enabled()) {
        std::fprintf(stderr, "perfbench: refusing to run with span "
                             "tracing on\n");
        clean = false;
    }
    return clean;
}

bool
checkMetricSet(const Report &report, bool trace)
{
    std::vector<std::string> want;
    if (trace)
        want.assign(std::begin(kPerLayer), std::end(kPerLayer));
    else
        want.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    if (report.metrics.size() != want.size())
        return false;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (report.metrics[i].name != want[i] ||
            !std::isfinite(report.metrics[i].value))
            return false;
    }
    return true;
}

void
printReport(const Report &report)
{
    for (const std::string &note : report.notes)
        std::printf("# %s\n", note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i ? ", " : "",
                    pipedepth::jsonQuote(m.name).c_str(), m.value,
                    pipedepth::jsonQuote(m.unit).c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    Options opt;
    opt.cores = onlineCores();
    int trace = -1;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--tiny") {
            opt.tiny = true;
        } else if (!has_value) {
            return usage();
        } else if (arg == "--workload") {
            opt.workload = argv[++i];
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            trace = std::atoi(argv[++i]);
        } else if (arg == "--root") {
            opt.root = argv[++i];
        } else if (arg == "--work-dir") {
            opt.work_dir = argv[++i];
        } else if (arg == "--daemon") {
            opt.daemon = argv[++i];
        } else if (arg == "--golden-table") {
            opt.golden_table = argv[++i];
        } else {
            return usage();
        }
    }
    opt.trace = trace == 1;
    if (opt.root.empty() || opt.work_dir.empty())
        return usage();
    if (!environmentClean())
        return 2;

    try {
        if (mode == "digest")
            return printCatalogDigest(opt);
        if (mode != "run" || (trace != 0 && trace != 1) ||
            !(opt.seconds > 0) || opt.daemon.empty())
            return usage();

        const std::string build = PERFBENCH_BUILD_TYPE;
        std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                    "nproc=%u build=%s sanitize=%s git=%s\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), opt.seconds,
                    trace, opt.cores, build.c_str(), PERFBENCH_SANITIZE,
                    pipedepth::gitDescribe());
        if ((build != "Release" && build != "RelWithDebInfo") ||
            std::strcmp(PERFBENCH_SANITIZE, "OFF") != 0) {
            std::printf("# WARNING: not an optimized, sanitizer-free build; "
                        "timings do not represent the program\n");
        }

        Report report;
        if (opt.workload == "catalog_cold")
            report = runCatalogCold(opt);
        else if (opt.workload == "golden_cells")
            report = runGoldenCells(opt);
        else
            return usage();

        if (!checkMetricSet(report, opt.trace)) {
            std::fprintf(stderr, "perfbench: %s did not report the full "
                                 "metric set\n",
                         opt.workload.c_str());
            return 3;
        }
        printReport(report);
        return report.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }
}
