/**
 * @file
 * Ablation: the optimum depth as a continuous function of the metric
 * exponent m.
 *
 * The paper treats m as one of the two parameters "which have the
 * greatest impact on the optimum design point" but only evaluates
 * m in {1, 2, 3} (plus the m -> infinity performance-only limit).
 * This bench maps p_opt(m) densely, for theory (exact solver) and
 * simulation (cubic fit over recomputed metrics from one sweep),
 * showing the onset of pipelined optima past m ~ beta and the slow
 * approach to the performance-only limit.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/optimum_solver.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);
    SweepEngine engine(opt.engineOptions());
    const SweepResult sweep = sweepWorkload(engine, opt, "gcc95");
    engine.printSummary(std::cerr);

    // Theory at the extracted parameters (paper model, c_mem = 0).
    const TheoryModel th = sweep.theoryModel(true);
    const OptimumSolver solver(th.machine, th.power);
    const double perf_limit =
        PerformanceModel(th.machine).performanceOnlyOptimum();

    banner(opt, "optimum depth vs metric exponent m (workload gcc95)");
    TableWriter t(opt.style());
    t.addColumn("m", 2);
    t.addColumn("theory_popt", 2);
    t.addColumn("theory_interior");
    t.addColumn("sim_cubic_popt", 2);
    t.addColumn("sim_interior");

    for (double m = 1.0; m <= 6.01; m += 0.25) {
        const OptimumResult th = solver.solveExact(m);
        bool sim_interior = false;
        const double sim =
            sweep.cubicFitOptimum(m, true, &sim_interior);
        t.beginRow();
        t.cell(m);
        t.cell(th.p_opt);
        t.cell(th.interior ? "yes" : "no");
        t.cell(sim);
        t.cell(sim_interior ? "yes" : "no");
    }
    t.render(std::cout);

    if (!opt.csv) {
        std::printf("\nperformance-only limit (m -> inf): %.1f stages\n",
                    perf_limit);
        std::printf("paper: no optima below m ~ beta; BIPS^3/W ~7; "
                    "BIPS alone ~20+\n");
    }
    return 0;
}
