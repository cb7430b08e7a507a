/**
 * @file
 * Ablation: superscalar width and the optimum depth.
 *
 * Eq. 2 predicts p_opt ~ 1/sqrt(alpha): "As the degree of superscalar
 * processing increases, the optimum pipeline depth decreases". Width
 * is the hardware lever on alpha, so sweeping the machine width is
 * the simulated test of that dependence (the workload's ILP bounds
 * how much extracted alpha actually grows).
 */

#include <iostream>

#include "bench_util.hh"
#include "calib/extract.hh"
#include "math/least_squares.hh"
#include "power/activity_power.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    banner(opt, "width ablation: extracted alpha and BIPS^3/W optimum");
    TableWriter t(opt.style());
    t.addColumn("workload");
    t.addColumn("width", 0);
    t.addColumn("alpha", 2);
    t.addColumn("cpi_at_8", 3);
    t.addColumn("p_opt", 2);

    SweepEngine engine(opt.engineOptions());
    for (const char *name : {"gcc95", "websrv"}) {
        const Trace trace =
            findWorkload(name).makeTrace(opt.trace_length);
        for (int width : {1, 2, 4, 6}) {
            std::vector<PipelineConfig> configs;
            for (int p = 2; p <= 25; ++p) {
                PipelineConfig cfg = PipelineConfig::forDepth(p);
                cfg.width = width;
                cfg.agen_width = std::max(1, width / 2);
                cfg.warmup_instructions = opt.warmup();
                configs.push_back(cfg);
            }
            const std::vector<SimResult> runs =
                engine.runConfigs(trace, configs);
            const SimResult &ref = runs[8 - 2];
            std::vector<double> depths, metric;
            ActivityPowerModel power;
            power = power.withLeakageFraction(ref, 0.15);
            for (const auto &r : runs) {
                depths.push_back(r.depth);
                metric.push_back(power.metric(r, 3.0, true));
            }
            const CubicPeak peak = fitCubicPeak(depths, metric);
            const MachineParams mp = extractMachineParams(ref);

            t.beginRow();
            t.cell(name);
            t.cell(width);
            t.cell(mp.alpha);
            t.cell(ref.cpi());
            t.cell(peak.x);
        }
    }
    t.render(std::cout);
    engine.printSummary(std::cerr);

    if (!opt.csv) {
        std::printf("\nexpected from Eq. 2: wider machine -> higher "
                    "alpha -> shallower optimum (saturating once the "
                    "workload's ILP is exhausted)\n");
    }
    return 0;
}
