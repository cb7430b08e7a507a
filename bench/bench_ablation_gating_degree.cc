/**
 * @file
 * Ablation: partial clock gating.
 *
 * The paper analyzes the two extremes — no gating (f_cg = 1, every
 * latch switches every cycle) and complete fine-grained gating
 * (switching follows work). Real designs gate a fraction of the
 * latches. The theory carries a constant gating factor f_cg for the
 * non-gated formulation; this bench sweeps it and also interpolates
 * the simulator's two activity models, showing the paper's claim
 * ("clock gating pushes the optimum to deeper pipelines") as a
 * continuous trend.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"
#include "core/optimum_solver.hh"
#include "math/least_squares.hh"
#include "power/activity_power.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    SweepEngine engine(opt.engineOptions());
    const SweepResult sweep = sweepWorkload(engine, opt, "gcc95");
    engine.printSummary(std::cerr);

    banner(opt, "theory: optimum vs constant gating factor f_cg "
                "(non-gated formulation)");
    TableWriter t(opt.style());
    t.addColumn("f_cg", 2);
    t.addColumn("p_opt", 2);
    t.addColumn("interior");
    // Calibrate leakage once for the ungated machine; gating then
    // scales only the dynamic component (leakage does not gate), so
    // its share grows as f_cg falls — that is what moves the optimum.
    const TheoryModel th = sweep.theoryModel(false);
    for (double f : {1.0, 0.8, 0.6, 0.4, 0.2}) {
        PowerParams pw = th.power;
        pw.f_cg = f;
        const OptimumResult r =
            OptimumSolver(th.machine, pw).solveExact(3.0);
        t.beginRow();
        t.cell(f);
        t.cell(r.p_opt);
        t.cell(r.interior ? "yes" : "no");
    }
    t.render(std::cout);

    banner(opt, "simulation: optimum vs gated fraction of dynamic "
                "power (interpolated activity)");
    TableWriter s(opt.style());
    s.addColumn("gated_fraction", 2);
    s.addColumn("p_opt", 2);
    // SweepResult models fully gated or ungated power only, so this
    // mix is fitted here.
    const auto depths = sweep.depths();
    for (double g : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        // Interpolate between the free-running and fully gated
        // dynamic power; leakage is unchanged.
        std::vector<double> metric;
        for (const SimResult &r : sweep.runs) {
            const SimPower p = sweep.power_model.power(r);
            const double dyn =
                g * p.dynamic_gated + (1.0 - g) * p.dynamic_ungated;
            const double watts = dyn + p.leakage;
            metric.push_back(std::pow(r.bips(), 3.0) / watts);
        }
        const CubicPeak peak = fitCubicPeak(depths, metric);
        s.beginRow();
        s.cell(g);
        s.cell(peak.x);
    }
    s.render(std::cout);

    if (!opt.csv) {
        std::printf("\npaper: \"Clock gating reduces the power for a "
                    "given performance. Therefore, one can push the "
                    "pipeline to larger depths\"\n");
    }
    return 0;
}
