/**
 * @file
 * Ablation: off-chip memory latency and the optimum depth.
 *
 * Miss penalties are constant in absolute time, so in cycles they
 * grow linearly with clock frequency — yet they are *not* gamma*p
 * hazards in the analytic model's sense: they add a roughly
 * depth-independent time per instruction, depressing BIPS everywhere
 * without steering the optimum much. This bench sweeps the memory
 * latency across a 16x range and reports how (little) the BIPS^3/W
 * optimum moves compared with how much BIPS itself drops.
 */

#include <iostream>

#include "bench_util.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    TableWriter t(opt.style());
    t.addColumn("mem_latency_fo4", 0);
    t.addColumn("cpi_at_8", 3);
    t.addColumn("bips_at_8_rel", 3);
    t.addColumn("p_opt", 2);

    SweepEngine engine(opt.engineOptions());
    const SweepOptions so = opt.sweepOptions();
    const WorkloadSpec &spec = findWorkload("db1");
    double base_bips = 0.0;
    for (double mem : {200.0, 400.0, 800.0, 1600.0, 3200.0}) {
        std::vector<PipelineConfig> configs;
        for (int p = so.min_depth; p <= so.max_depth; ++p) {
            PipelineConfig cfg = so.configAtDepth(p);
            cfg.mem_latency_fo4 = mem;
            configs.push_back(cfg);
        }
        std::vector<SimResult> runs =
            engine.runConfigs(spec, so.trace_length, configs);
        exitOnHole(engine);
        const SweepResult sweep = assembleSweep(spec, so, std::move(runs));
        const SimResult &ref = sweep.runAt(so.reference_depth);
        if (base_bips == 0.0)
            base_bips = ref.bips();

        t.beginRow();
        t.cell(mem);
        t.cell(ref.cpi());
        t.cell(ref.bips() / base_bips);
        t.cell(sweep.cubicFitOptimum(3.0, true, nullptr));
    }
    // Every sweep before any output: a hole leaves stdout empty.
    banner(opt, "memory latency ablation (workload db1)");
    t.render(std::cout);
    engine.printSummary(std::cerr);

    if (!opt.csv) {
        std::printf("\nexpected: BIPS drops substantially with memory "
                    "latency while the optimum depth moves far less "
                    "(constant-time stalls are depth-neutral)\n");
    }
    return 0;
}
