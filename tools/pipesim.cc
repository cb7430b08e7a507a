/**
 * @file
 * pipesim — run a trace tape (or catalog workload) through the
 * cycle-accurate pipeline model.
 *
 * Usage:
 *   pipesim (--tape FILE | --workload NAME) [--depth P | --sweep]
 *           [--ooo] [--predictor bimodal|gshare|taken]
 *           [--warmup N] [--csv] [--no-cache] [--threads N]
 *           [--stalls] [--stalls-json] [--audit]
 *
 * With --depth, prints the detailed statistics of a single run. With
 * --sweep, simulates depths 2..25 (3..25 with --ooo) and prints
 * per-depth CPI, BIPS and the BIPS^3/W metric, plus the cubic-fit
 * optimum — the paper's per-workload experiment in one command. The
 * sweep comes from the SweepResult that assembleSweep builds, as in
 * the benches: 15% leakage at depth 8.
 *
 * --stalls prints the stall ledger's exact cycle decomposition (per
 * bucket: cycles, share of the run, events) — for a single run as a
 * table, with --sweep as one composition row per depth. --stalls-json
 * emits the single-run breakdown as JSON for scripting. --audit makes
 * the simulator hard-fail if the ledger's conservation invariant
 * (sum of buckets == cycles) is violated; without it a violation is
 * exported as the `residual` counter.
 *
 * Runs go through the SweepEngine: sweep depths simulate in parallel
 * and every result is memoized in the on-disk cache. A --workload
 * cell is keyed by its spec, trace length and config — the address
 * calibration_report and the benches use for the same cell — so a
 * warm run generates no trace; a --tape cell is keyed by the full
 * trace contents. --no-cache bypasses the cache. The engine's counts
 * are printed once, in its summary on stderr; scripts read them from
 * the --manifest-out manifest (`cell_counts`, the metric snapshot).
 *
 * Telemetry (docs/OBSERVABILITY.md): --trace-out FILE writes a
 * Chrome trace_event JSON of the run's spans (open in Perfetto);
 * --manifest-out FILE writes the schema-versioned run manifest
 * (provenance, per-cell outcomes, metric snapshot, span rollups).
 * Either enables span tracing for the run.
 *
 * Reliability (docs/RELIABILITY.md): a cell whose simulation throws
 * is quarantined after its one attempt — a hole. The engine still
 * walks and caches every other cell, but pipesim prints nothing
 * around a hole: it lists each one on stderr (`hole: W depth D
 * CAUSE`, the summary's last lines) and in the manifest, and exits
 * 3. A hole is never cached. SIGINT and SIGTERM end a run at once, as
 * SIGKILL does: every cell group already walked is in the cache, and
 * at most the groups in flight are lost. A background job of a
 * non-interactive shell starts with SIGINT ignored (POSIX), so
 * scripts stop a run with SIGTERM. A stopped or holed run recovers
 * the same way: the same command, run again on the same cache,
 * serves completed cells from the cache, computes only the rest, and
 * prints a grid byte-identical to an uninterrupted run. Concurrent
 * runs on one host may share a cache: each prints a single run's
 * bytes, and a cell both reach before either has cached it is walked
 * twice. --failpoint SPEC injects deterministic faults (same syntax
 * as PIPEDEPTH_FAILPOINTS, seeded by PIPEDEPTH_FAILPOINT_SEED; see
 * common/failpoint.hh).
 *
 * Unknown flags, a missing flag argument, or an unknown workload name
 * print usage / the catalog hint and exit with status 2; simulation
 * failures exit 1; a run with a hole, in either form, prints nothing
 * and exits 3.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "calib/extract.hh"
#include "common/failpoint.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "sweep/cache_key.hh"
#include "sweep/depth_sweep.hh"
#include "sweep/sweep_engine.hh"
#include "telemetry/manifest.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace_io.hh"
#include "uarch/simulator.hh"
#include "workloads/catalog.hh"

using namespace pipedepth;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--tape FILE | --workload NAME) [--depth P | --sweep]\n"
        "          [--ooo] [--predictor bimodal|gshare|taken]\n"
        "          [--length N] [--warmup N] [--csv] [--no-cache]\n"
        "          [--threads N] [--stalls] [--stalls-json] [--audit]\n"
        "          [--trace-out FILE] [--manifest-out FILE]\n"
        "          [--failpoint SPEC]\n"
        "A stopped or holed run recovers when the same command runs\n"
        "again on the same result cache.\n",
        argv0);
    std::exit(2);
}

/** Parsed command line (see usage / the file comment). */
struct Options
{
    std::string tape, workload;
    int depth = 8;
    bool sweep = false;
    bool ooo = false;
    bool csv = false;
    bool no_cache = false;
    bool stalls = false;
    bool stalls_json = false;
    bool audit = false;
    std::string trace_out, manifest_out;
    unsigned threads = 0;
    std::string failpoint_spec;
    std::size_t length = 200000;
    std::size_t warmup = 60000;
    PredictorKind predictor = PredictorKind::Bimodal;
};

/**
 * Parse @p args (argv without the program name) into @p opt.
 * @return false on an unknown flag or missing argument.
 */
bool
parseArgs(const std::vector<std::string> &args, Options &opt)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const bool has_value = i + 1 < args.size();
        if (arg == "--tape" && has_value) {
            opt.tape = args[++i];
        } else if (arg == "--workload" && has_value) {
            opt.workload = args[++i];
        } else if (arg == "--depth" && has_value) {
            opt.depth = std::atoi(args[++i].c_str());
        } else if (arg == "--sweep") {
            opt.sweep = true;
        } else if (arg == "--ooo") {
            opt.ooo = true;
        } else if (arg == "--length" && has_value) {
            opt.length = static_cast<std::size_t>(
                std::strtoull(args[++i].c_str(), nullptr, 10));
        } else if (arg == "--warmup" && has_value) {
            opt.warmup = static_cast<std::size_t>(
                std::strtoull(args[++i].c_str(), nullptr, 10));
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--no-cache") {
            opt.no_cache = true;
        } else if (arg == "--stalls") {
            opt.stalls = true;
        } else if (arg == "--stalls-json") {
            opt.stalls_json = true;
        } else if (arg == "--audit") {
            opt.audit = true;
        } else if (arg == "--trace-out" && has_value) {
            opt.trace_out = args[++i];
        } else if (arg == "--manifest-out" && has_value) {
            opt.manifest_out = args[++i];
        } else if (arg == "--failpoint" && has_value) {
            opt.failpoint_spec = args[++i];
        } else if (arg == "--threads" && has_value) {
            opt.threads = static_cast<unsigned>(
                std::strtoul(args[++i].c_str(), nullptr, 10));
        } else if (arg == "--predictor" && has_value) {
            const std::string kind = args[++i];
            if (kind == "bimodal")
                opt.predictor = PredictorKind::Bimodal;
            else if (kind == "gshare")
                opt.predictor = PredictorKind::Gshare;
            else if (kind == "taken")
                opt.predictor = PredictorKind::AlwaysTaken;
            else
                return false;
        } else {
            return false;
        }
    }
    return true;
}

/** Per-instruction event count of the buckets that have one. */
std::uint64_t
bucketEvents(const SimResult &r, StallBucket b)
{
    switch (b) {
      case StallBucket::Mispredict:
        return r.mispredict_events;
      case StallBucket::DCacheMiss:
        return r.dcache_miss_events;
      case StallBucket::DepLoad:
        return r.load_interlock_events;
      case StallBucket::DepFp:
        return r.fp_interlock_events;
      case StallBucket::DepInt:
        return r.int_interlock_events;
      default:
        return 0;
    }
}

void
printStallTable(const SimResult &r, bool csv)
{
    TableWriter t(csv ? TableWriter::Style::Csv
                      : TableWriter::Style::Aligned);
    t.addColumn("bucket", 0);
    t.addColumn("cycles", 0);
    t.addColumn("share", 4);
    t.addColumn("per_instr", 4);
    t.addColumn("events", 0);
    const double cy = static_cast<double>(r.cycles);
    const double n = static_cast<double>(r.instructions);
    for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
        const auto bucket = static_cast<StallBucket>(b);
        const std::uint64_t c = r.ledgerCycles(bucket);
        t.beginRow();
        t.cell(stallBucketName(bucket));
        t.cell(c);
        t.cell(static_cast<double>(c) / cy);
        t.cell(static_cast<double>(c) / n);
        t.cell(bucketEvents(r, bucket));
    }
    t.render(std::cout);
    std::printf("total %llu of %llu cycles, residual %lld\n",
                static_cast<unsigned long long>(r.ledgerTotal()),
                static_cast<unsigned long long>(r.cycles),
                static_cast<long long>(r.ledger_residual));
}

void
printStallJson(const SimResult &r)
{
    // A tape's name is whatever its header holds: quote it.
    std::printf("{\n  \"workload\": %s,\n  \"depth\": %d,\n"
                "  \"cycles\": %llu,\n  \"instructions\": %llu,\n"
                "  \"residual\": %lld,\n  \"buckets\": {\n",
                jsonQuote(r.workload).c_str(), r.depth,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions),
                static_cast<long long>(r.ledger_residual));
    for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
        const auto bucket = static_cast<StallBucket>(b);
        std::printf("    \"%s\": {\"cycles\": %llu, \"events\": %llu}%s\n",
                    stallBucketName(bucket).c_str(),
                    static_cast<unsigned long long>(
                        r.ledgerCycles(bucket)),
                    static_cast<unsigned long long>(
                        bucketEvents(r, bucket)),
                    b + 1 < kNumStallBuckets ? "," : "");
    }
    std::printf("  }\n}\n");
}

void
printStallSweep(const SweepResult &sweep, bool csv)
{
    TableWriter t(csv ? TableWriter::Style::Csv
                      : TableWriter::Style::Aligned);
    t.addColumn("depth", 0);
    for (std::size_t b = 0; b < kNumStallBuckets; ++b)
        t.addColumn(stallBucketName(static_cast<StallBucket>(b)), 4);
    t.addColumn("residual", 0);
    for (const SimResult &r : sweep.runs) {
        const double cy = static_cast<double>(r.cycles);
        t.beginRow();
        t.cell(r.depth);
        for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
            t.cell(static_cast<double>(r.ledgerCycles(
                       static_cast<StallBucket>(b))) /
                   cy);
        }
        t.cell(r.ledger_residual);
    }
    t.render(std::cout);
}

void
printRun(const SimResult &r)
{
    std::printf("workload %s at depth %d (%.1f FO4/stage, %s)\n",
                r.workload.c_str(), r.depth, r.cycle_time_fo4,
                r.config.in_order ? "in-order" : "out-of-order");
    std::printf("  instructions  %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  cycles        %llu  (CPI %.3f)\n",
                static_cast<unsigned long long>(r.cycles), r.cpi());
    std::printf("  branches      %llu  (MPKI %.1f)\n",
                static_cast<unsigned long long>(r.branches),
                1000.0 * static_cast<double>(r.mispredicts) /
                    static_cast<double>(r.instructions));
    std::printf("  I$ / D$ / L2 miss rate  %.2f%% / %.2f%% / %.2f%%\n",
                100.0 * static_cast<double>(r.icache_misses) /
                    static_cast<double>(r.icache_accesses),
                100.0 * static_cast<double>(r.dcache_misses) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, r.dcache_accesses)),
                100.0 * static_cast<double>(r.l2_misses) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, r.l2_accesses)));

    const double n = static_cast<double>(r.instructions);
    std::printf("  stall cycles/instr: mispredict %.3f, icache %.3f, "
                "dmiss %.3f,\n"
                "                      load-dep %.3f, int-dep %.3f, "
                "fp-dep %.3f, unit-busy %.3f\n",
                r.mispredict_stall_cycles / n, r.icache_stall_cycles / n,
                r.dcache_stall_cycles / n,
                r.load_interlock_stall_cycles / n,
                r.int_interlock_stall_cycles / n,
                r.fp_interlock_stall_cycles / n,
                r.unit_busy_stall_cycles / n);

    const MachineParams mp = extractMachineParams(r);
    std::printf("  extracted theory params: alpha %.2f, gamma %.2f, "
                "N_H/N_I %.3f\n",
                mp.alpha, mp.gamma, mp.hazard_ratio);

    std::printf("  per-unit activity (share of cycles):\n");
    for (std::size_t u = 0; u < kNumUnits; ++u) {
        if (r.units[u].depth == 0 && r.units[u].active_cycles == 0)
            continue;
        std::printf("    %-8s depth %d  active %5.1f%%\n",
                    unitName(static_cast<Unit>(u)).c_str(),
                    r.units[u].depth,
                    100.0 * static_cast<double>(r.units[u].active_cycles) /
                        static_cast<double>(r.cycles));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    Options opt;
    if (!parseArgs(args, opt))
        usage(argv[0]);

    if (opt.tape.empty() == opt.workload.empty())
        usage(argv[0]); // exactly one source

    if (!opt.failpoint_spec.empty()) {
        std::string error;
        if (!failpoints::configure(opt.failpoint_spec, &error)) {
            std::fprintf(stderr, "%s: bad --failpoint spec: %s\n",
                         argv[0], error.c_str());
            return 2;
        }
    }

    if (!opt.workload.empty()) {
        bool known = false;
        for (const auto &w : workloadCatalog())
            known = known || w.name == opt.workload;
        if (!known) {
            std::fprintf(stderr,
                         "%s: unknown workload '%s' (run `tracegen "
                         "--list` for the catalog)\n",
                         argv[0], opt.workload.c_str());
            return 2;
        }
    }

    // Enable span tracing before a trace is loaded or generated so
    // its span lands in the output too.
    const bool telemetry_on =
        !opt.trace_out.empty() || !opt.manifest_out.empty();
    if (telemetry_on)
        SpanTracer::instance().setEnabled(true);

    // Only a tape is read here. A catalog workload's trace is generated
    // by the engine, and only when a cell misses the cache.
    std::optional<Trace> tape;
    if (!opt.tape.empty())
        tape = readTrace(opt.tape);

    SweepOptions so;
    so.min_depth = opt.ooo ? 3 : 2;
    so.trace_length = opt.length;
    so.warmup_instructions = opt.warmup;
    so.in_order = !opt.ooo;
    so.predictor = opt.predictor;
    const int first_depth = opt.sweep ? so.min_depth : opt.depth;
    const int last_depth = opt.sweep ? so.max_depth : opt.depth;
    std::vector<PipelineConfig> configs;
    for (int p = first_depth; p <= last_depth; ++p) {
        configs.push_back(so.configAtDepth(p));
        configs.back().audit_ledger = opt.audit;
    }

    SweepEngineOptions engine_options;
    engine_options.threads = opt.threads;
    engine_options.use_cache = !opt.no_cache;
    SweepEngine engine(engine_options);

    RunManifest manifest;
    if (telemetry_on) {
        StableHasher config_hasher; // grid identity
        for (const auto &cfg : configs)
            hashPipelineConfig(config_hasher, cfg);
        manifest.setTool("pipesim");
        manifest.setArgv(argc, argv);
        manifest.addMeta("sim_version", kSimulatorVersionTag);
        manifest.addMeta("config_hash", config_hasher.key().hex());
        manifest.addMeta("trace", tape ? tape->name : opt.workload);
        manifest.addMeta("cache_dir",
                         engine.cacheEnabled() ? engine.cacheDir() : "");
        engine.attachManifest(&manifest);
    }

    // Epilogue shared by both the single-run and sweep paths: the
    // summary, then the telemetry files.
    auto finishRun = [&](int exit_code) -> int {
        engine.printSummary(std::cerr);
        if (!opt.trace_out.empty())
            SpanTracer::instance().writeChromeTrace(opt.trace_out);
        if (!opt.manifest_out.empty())
            manifest.write(opt.manifest_out);
        return exit_code;
    };

    auto simulate = [&]() {
        return tape ? engine.runConfigs(*tape, configs)
                    : engine.runConfigs(findWorkload(opt.workload),
                                        opt.length, configs);
    };

    // A hole prints nothing: the summary names it, and the same
    // command computes it.
    if (!opt.sweep) {
        const SimResult run = simulate().front();
        if (!engine.lastFailures().empty())
            return finishRun(3);
        if (opt.stalls_json) {
            printStallJson(run);
        } else {
            printRun(run);
            if (opt.stalls) {
                std::printf("\nstall ledger breakdown:\n");
                printStallTable(run, opt.csv);
            }
        }
        return finishRun(0);
    }

    std::vector<SimResult> runs = simulate();
    if (!engine.lastFailures().empty())
        return finishRun(3);
    WorkloadSpec tape_spec;
    if (tape)
        tape_spec.name = tape->name;
    const SweepResult sweep =
        assembleSweep(tape ? tape_spec : findWorkload(opt.workload), so,
                      std::move(runs));

    TableWriter t(opt.csv ? TableWriter::Style::Csv
                          : TableWriter::Style::Aligned);
    t.addColumn("depth", 0);
    t.addColumn("FO4", 1);
    t.addColumn("CPI", 3);
    t.addColumn("BIPS_rel", 3);
    t.addColumn("BIPS3_W_rel", 3);

    const std::vector<double> bips = sweep.bips();
    const std::vector<double> metric = sweep.metric(3.0, true);
    const double bips_peak = *std::max_element(bips.begin(), bips.end());
    const double metric_peak =
        *std::max_element(metric.begin(), metric.end());
    for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
        const SimResult &r = sweep.runs[i];
        t.beginRow();
        t.cell(r.depth);
        t.cell(r.cycle_time_fo4);
        t.cell(r.cpi());
        t.cell(bips[i] / bips_peak);
        t.cell(metric[i] / metric_peak);
    }
    t.render(std::cout);

    bool interior = false;
    const double optimum = sweep.cubicFitOptimum(3.0, true, &interior);
    if (!opt.csv)
        std::printf("\nBIPS^3/W cubic-fit optimum: %.1f stages%s\n",
                    optimum, interior ? "" : " (endpoint)");
    if (opt.stalls || opt.stalls_json) {
        if (!opt.csv)
            std::printf("\nstall ledger composition by depth "
                        "(share of cycles):\n");
        printStallSweep(sweep, opt.csv);
    }
    return finishRun(0);
}
