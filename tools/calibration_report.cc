/**
 * @file
 * Calibration report: per-workload and per-class summary of the
 * quantities that anchor the reproduction — extracted theory
 * parameters (alpha, gamma, N_H/N_I), branch/cache behaviour, and the
 * cubic-fit optima for the performance-only and BIPS^3/W objectives.
 * Used when retuning the workload catalog.
 *
 * The whole 55 x 24 grid runs as one SweepEngine call: parallel
 * across cells and served from the on-disk result cache on re-runs
 * (pass --no-cache to force recomputation). A hole prints nothing:
 * the report writes its summary (whose `hole:` lines name each one)
 * and manifest, then exits 3, and the same command computes it.
 *
 * --stalls appends the per-class stall-ledger composition at the
 * reference depth: the share of cycles each ledger bucket accounts
 * for, averaged over the workloads of the class. Because the ledger
 * conserves cycles exactly, each row sums to 1.
 *
 * --limit N keeps only the first N catalog workloads (the CI smoke
 * sweep uses --limit 4). Telemetry (docs/OBSERVABILITY.md):
 * --trace-out FILE writes a Perfetto-loadable Chrome trace of the
 * run, and --manifest-out FILE the schema-versioned run manifest;
 * either enables span tracing. SIGINT and SIGTERM end the report at
 * once; the cells it finished are cached, and the same command run
 * again computes only the rest.
 */
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "sweep/cache_key.hh"
#include "sweep/sweep_engine.hh"
#include "telemetry/manifest.hh"
#include "telemetry/telemetry.hh"
#include "workloads/catalog.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    SweepEngineOptions engine_options;
    bool stalls = false;
    std::size_t limit = 0;
    std::string trace_out, manifest_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--no-cache") {
            engine_options.use_cache = false;
        } else if (arg == "--stalls") {
            stalls = true;
        } else if (arg == "--limit" && i + 1 < argc) {
            limit = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--manifest-out" && i + 1 < argc) {
            manifest_out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--no-cache] [--stalls] [--limit N]\n"
                         "          [--trace-out FILE] [--manifest-out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<WorkloadSpec> specs = workloadCatalog();
    if (limit > 0 && limit < specs.size())
        specs.resize(limit);

    SweepEngine engine(engine_options);

    const bool telemetry_on = !trace_out.empty() || !manifest_out.empty();
    RunManifest manifest;
    if (telemetry_on) {
        SpanTracer::instance().setEnabled(true);
        manifest.setTool("calibration_report");
        manifest.setArgv(argc, argv);
        StableHasher spec_hash;
        for (const auto &w : specs)
            hashWorkloadSpec(spec_hash, w);
        manifest.addMeta("sim_version", kSimulatorVersionTag);
        manifest.addMeta("catalog_hash", spec_hash.key().hex());
        manifest.addMeta("workloads", std::to_string(specs.size()));
        manifest.addMeta("cache_dir",
                         engine.cacheEnabled() ? engine.cacheDir() : "");
        engine.attachManifest(&manifest);
    }

    auto finish = [&](int exit_code) {
        engine.printSummary(std::cerr);
        if (!trace_out.empty())
            SpanTracer::instance().writeChromeTrace(trace_out);
        if (!manifest_out.empty())
            manifest.write(manifest_out);
        return exit_code;
    };

    const std::vector<SweepResult> sweeps =
        engine.runGrid(specs, SweepOptions{});
    if (!engine.lastFailures().empty())
        return finish(3);

    struct Acc { int n=0; double a=0,g=0,h=0,perf=0,m3=0,mpki=0,dmr=0; };
    std::map<std::string, Acc> byclass;
    for (const auto &s : sweeps) {
        const WorkloadSpec &w = s.spec;
        const SimResult &r = s.runAt(s.options.reference_depth);
        bool i1=false, i2=false;
        const double perf = s.cubicFitPerformanceOptimum(&i1);
        const double m3 = s.cubicFitOptimum(3.0, true, &i2);
        Acc &a = byclass[workloadClassName(w.cls)];
        a.n++; a.a += s.extracted.alpha; a.g += s.extracted.gamma;
        a.h += s.extracted.hazard_ratio; a.perf += perf; a.m3 += m3;
        a.mpki += 1000.0*r.mispredicts/r.instructions;
        a.dmr += r.dcache_misses/double(r.dcache_accesses?r.dcache_accesses:1);
        std::printf("%-12s %-12s perf=%5.1f%s m3g=%5.2f%s a=%.2f g=%.2f h=%.3f "
                    "mpki=%4.1f dmr=%.3f cpi8=%.2f\n",
                    w.name.c_str(), workloadClassName(w.cls).c_str(),
                    perf, i1?"":"*", m3, i2?"":"*",
                    s.extracted.alpha, s.extracted.gamma,
                    s.extracted.hazard_ratio,
                    1000.0*r.mispredicts/r.instructions,
                    r.dcache_misses/double(r.dcache_accesses?r.dcache_accesses:1),
                    r.cpi());
    }
    std::printf("\nclass averages:\n");
    for (auto &[k, a] : byclass) {
        std::printf("%-12s n=%2d perf=%5.1f m3g=%5.2f a=%.2f g=%.2f h=%.3f "
                    "mpki=%4.1f dmr=%.3f\n",
                    k.c_str(), a.n, a.perf/a.n, a.m3/a.n, a.a/a.n, a.g/a.n,
                    a.h/a.n, a.mpki/a.n, a.dmr/a.n);
    }
    if (stalls) {
        // Stall-ledger composition at the reference depth, class
        // averages of each bucket's share of cycles.
        std::map<std::string, std::array<double, kNumStallBuckets>>
            shares;
        std::map<std::string, int> counts;
        for (const auto &s : sweeps) {
            const SimResult &r = s.runAt(s.options.reference_depth);
            auto &acc = shares[workloadClassName(s.spec.cls)];
            counts[workloadClassName(s.spec.cls)]++;
            for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
                acc[b] += static_cast<double>(r.ledgerCycles(
                              static_cast<StallBucket>(b))) /
                          static_cast<double>(r.cycles);
            }
        }
        std::printf("\nstall ledger composition at reference depth "
                    "(share of cycles, class average):\n%-12s",
                    "class");
        for (std::size_t b = 0; b < kNumStallBuckets; ++b)
            std::printf(" %9s",
                        stallBucketName(static_cast<StallBucket>(b))
                            .c_str());
        std::printf("\n");
        for (auto &[k, acc] : shares) {
            std::printf("%-12s", k.c_str());
            for (std::size_t b = 0; b < kNumStallBuckets; ++b)
                std::printf(" %9.4f", acc[b] / counts[k]);
            std::printf("\n");
        }
    }
    return finish(0);
}
