/**
 * @file
 * Full workload study: simulate one catalog workload over pipeline
 * depths 2..25, extract the theory parameters from a single reference
 * run, and compare the simulated metric curves with the analytic
 * prediction — the complete methodology of the paper's Sec. 3/4 for
 * one workload.
 *
 * Run: ./examples/workload_study [workload-name]
 *      (default: gcc95; try 'websrv', 'db1', 'swim', ...)
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "common/table.hh"
#include "sweep/depth_sweep.hh"

int
main(int argc, char **argv)
{
    using namespace pipedepth;

    const std::string name = argc > 1 ? argv[1] : "gcc95";
    const WorkloadSpec &spec = findWorkload(name);

    SweepOptions options;
    options.trace_length = 150000;
    options.warmup_instructions = 60000;
    const std::optional<SweepResult> result = runDepthSweep(spec, options);
    if (!result) {
        std::fprintf(stderr, "%s: a cell of the sweep failed; run again "
                             "to compute it\n",
                     spec.name.c_str());
        return 3;
    }
    const SweepResult &sweep = *result;

    std::printf("workload %s (%s), simulating depths 2..25...\n",
                spec.name.c_str(), workloadClassName(spec.cls).c_str());

    // Reference-run characteristics.
    const SimResult &ref = sweep.runAt(options.reference_depth);
    std::printf("\nreference run at %d stages:\n", ref.depth);
    std::printf("  CPI %.3f, branch MPKI %.1f, D$ miss %.2f%%, I$ miss "
                "%.2f%%\n",
                ref.cpi(),
                1000.0 * static_cast<double>(ref.mispredicts) /
                    static_cast<double>(ref.instructions),
                100.0 * static_cast<double>(ref.dcache_misses) /
                    static_cast<double>(ref.dcache_accesses),
                100.0 * static_cast<double>(ref.icache_misses) /
                    static_cast<double>(ref.icache_accesses));
    std::printf("  extracted: alpha %.2f, gamma %.2f, N_H/N_I %.3f\n",
                sweep.extracted.alpha, sweep.extracted.gamma,
                sweep.extracted.hazard_ratio);

    // Per-depth table: simulation vs theory.
    double r2 = 0.0;
    const auto theory = sweep.theoryCurve(3.0, true, &r2);
    const auto sim = sweep.metric(3.0, true);
    const auto bips = sweep.bips();
    const auto depths = sweep.depths();

    double peak = 0.0;
    for (double v : sim)
        peak = std::max(peak, v);

    std::printf("\n");
    TableWriter t;
    t.addColumn("stages", 0);
    t.addColumn("FO4/stage", 1);
    t.addColumn("CPI", 3);
    t.addColumn("BIPS(rel)", 3);
    t.addColumn("BIPS^3/W sim", 3);
    t.addColumn("BIPS^3/W theory", 3);
    double bips_peak = 0.0;
    for (double b : bips)
        bips_peak = std::max(bips_peak, b);
    for (std::size_t i = 0; i < depths.size(); ++i) {
        const SimResult &r = sweep.runs[i];
        t.beginRow();
        t.cell(depths[i]);
        t.cell(r.cycle_time_fo4);
        t.cell(r.cpi());
        t.cell(bips[i] / bips_peak);
        t.cell(sim[i] / peak);
        t.cell(theory[i] / peak);
    }
    t.render(std::cout);

    bool i3 = false, ip = false;
    const double m3 = sweep.cubicFitOptimum(3.0, true, &i3);
    const double perf = sweep.cubicFitPerformanceOptimum(&ip);
    std::printf("\nBIPS^3/W optimum (cubic fit): %.1f stages%s\n", m3,
                i3 ? "" : " (endpoint)");
    std::printf("performance-only optimum (cubic fit): %.1f stages%s\n",
                perf, ip ? "" : " (endpoint)");
    std::printf("theory overlay r2: %.3f\n", r2);
    return 0;
}
