/**
 * @file
 * Ablation: where the extra pipeline stages go.
 *
 * The paper's methodology inserts extra stages "in Decode, Cache
 * Access and E-Unit Pipe, simultaneously. This allows all hazards to
 * see pipeline increases." This bench quantifies why that choice
 * matters: concentrating all growth in a single unit exposes only one
 * hazard class to the depth increase, so the optimum shifts depending
 * on which hazards the workload has — the uniform policy is the one
 * whose extracted gamma matches the analytic model's assumption that
 * hazards drain a *fraction of the whole pipe*.
 */

#include <iostream>

#include "bench_util.hh"
#include "math/least_squares.hh"
#include "power/activity_power.hh"

using namespace pipedepth;

namespace
{

struct PolicyRow
{
    double p_opt = 0.0;
    bool interior = false;
    double cpi20 = 0.0;
};

PolicyRow
runPolicy(SweepEngine &engine, const BenchOptions &opt,
          const WorkloadSpec &spec, ExpansionPolicy policy)
{
    const Trace trace = spec.makeTrace(opt.trace_length);

    std::vector<PipelineConfig> configs;
    for (int p = 2; p <= 25; ++p) {
        PipelineConfig cfg = PipelineConfig::forDepth(p, true, policy);
        cfg.warmup_instructions = opt.warmup();
        configs.push_back(cfg);
    }
    const std::vector<SimResult> runs = engine.runConfigs(trace, configs);
    std::vector<double> depths, metric;
    ActivityPowerModel power;
    power = power.withLeakageFraction(runs[6], 0.15); // depth 8
    for (const auto &r : runs) {
        depths.push_back(r.depth);
        metric.push_back(power.metric(r, 3.0, true));
    }
    const CubicPeak peak = fitCubicPeak(depths, metric);

    PolicyRow row;
    row.p_opt = peak.x;
    row.interior = peak.interior;
    row.cpi20 = runs[18].cpi(); // depth 20
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    banner(opt, "expansion policy ablation: BIPS^3/W optimum by where "
                "extra stages go");
    TableWriter t(opt.style());
    t.addColumn("workload");
    t.addColumn("policy");
    t.addColumn("p_opt", 2);
    t.addColumn("interior");
    t.addColumn("cpi_at_20", 3);

    SweepEngine engine(opt.engineOptions());
    for (const char *name : {"gcc95", "db1", "websrv"}) {
        for (ExpansionPolicy policy :
             {ExpansionPolicy::Uniform, ExpansionPolicy::DecodeHeavy,
              ExpansionPolicy::CacheHeavy, ExpansionPolicy::ExecHeavy}) {
            const PolicyRow row =
                runPolicy(engine, opt, findWorkload(name), policy);
            t.beginRow();
            t.cell(name);
            t.cell(toString(policy));
            t.cell(row.p_opt);
            t.cell(row.interior ? "yes" : "no");
            t.cell(row.cpi20);
        }
    }
    t.render(std::cout);
    engine.printSummary(std::cerr);

    if (!opt.csv) {
        std::printf("\npaper methodology: uniform insertion, so \"all "
                    "hazards see pipeline increases\"\n");
    }
    return 0;
}
