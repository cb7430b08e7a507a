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

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

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
            SweepOptions so = opt.sweepOptions();
            so.policy = policy;
            const SweepResult sweep =
                sweepWorkload(engine, findWorkload(name), so);
            bool interior = false;
            const double p_opt = sweep.cubicFitOptimum(3.0, true, &interior);
            t.beginRow();
            t.cell(name);
            t.cell(toString(policy));
            t.cell(p_opt);
            t.cell(interior ? "yes" : "no");
            t.cell(sweep.runAt(20).cpi());
        }
    }
    // Every sweep before any output: a hole leaves stdout empty.
    banner(opt, "expansion policy ablation: BIPS^3/W optimum by where "
                "extra stages go");
    t.render(std::cout);
    engine.printSummary(std::cerr);

    if (!opt.csv) {
        std::printf("\npaper methodology: uniform insertion, so \"all "
                    "hazards see pipeline increases\"\n");
    }
    return 0;
}
