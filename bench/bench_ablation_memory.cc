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
#include "math/least_squares.hh"
#include "power/activity_power.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);
    const Trace trace = findWorkload("db1").makeTrace(opt.trace_length);

    banner(opt, "memory latency ablation (workload db1)");
    TableWriter t(opt.style());
    t.addColumn("mem_latency_fo4", 0);
    t.addColumn("cpi_at_8", 3);
    t.addColumn("bips_at_8_rel", 3);
    t.addColumn("p_opt", 2);

    SweepEngine engine(opt.engineOptions());
    double base_bips = 0.0;
    for (double mem : {200.0, 400.0, 800.0, 1600.0, 3200.0}) {
        std::vector<PipelineConfig> configs;
        for (int p = 2; p <= 25; ++p) {
            PipelineConfig cfg = PipelineConfig::forDepth(p);
            cfg.mem_latency_fo4 = mem;
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
        if (base_bips == 0.0)
            base_bips = ref.bips();

        t.beginRow();
        t.cell(mem);
        t.cell(ref.cpi());
        t.cell(ref.bips() / base_bips);
        t.cell(peak.x);
    }
    t.render(std::cout);
    engine.printSummary(std::cerr);

    if (!opt.csv) {
        std::printf("\nexpected: BIPS drops substantially with memory "
                    "latency while the optimum depth moves far less "
                    "(constant-time stalls are depth-neutral)\n");
    }
    return 0;
}
