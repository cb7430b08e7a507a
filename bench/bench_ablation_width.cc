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

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    TableWriter t(opt.style());
    t.addColumn("workload");
    t.addColumn("width", 0);
    t.addColumn("alpha", 2);
    t.addColumn("cpi_at_8", 3);
    t.addColumn("p_opt", 2);

    SweepEngine engine(opt.engineOptions());
    const SweepOptions so = opt.sweepOptions();
    for (const char *name : {"gcc95", "websrv"}) {
        const WorkloadSpec &spec = findWorkload(name);
        for (int width : {1, 2, 4, 6}) {
            std::vector<PipelineConfig> configs;
            for (int p = so.min_depth; p <= so.max_depth; ++p) {
                PipelineConfig cfg = so.configAtDepth(p);
                cfg.width = width;
                cfg.agen_width = std::max(1, width / 2);
                configs.push_back(cfg);
            }
            std::vector<SimResult> runs =
                engine.runConfigs(spec, so.trace_length, configs);
            exitOnHole(engine);
            const SweepResult sweep =
                assembleSweep(spec, so, std::move(runs));

            t.beginRow();
            t.cell(name);
            t.cell(width);
            t.cell(sweep.extracted.alpha);
            t.cell(sweep.runAt(so.reference_depth).cpi());
            t.cell(sweep.cubicFitOptimum(3.0, true, nullptr));
        }
    }
    // Every sweep before any output: a hole leaves stdout empty.
    banner(opt, "width ablation: extracted alpha and BIPS^3/W optimum");
    t.render(std::cout);
    engine.printSummary(std::cerr);

    if (!opt.csv) {
        std::printf("\nexpected from Eq. 2: wider machine -> higher "
                    "alpha -> shallower optimum (saturating once the "
                    "workload's ILP is exhausted)\n");
    }
    return 0;
}
