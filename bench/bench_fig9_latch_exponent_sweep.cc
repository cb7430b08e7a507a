/**
 * @file
 * Reproduces Fig. 9: the BIPS^3/W metric versus depth for latch
 * growth exponents beta in {1.0, 1.1, 1.3, 1.5, 1.8}.
 *
 * Paper expectation: the optimum is a strong function of beta; beta
 * >= 2 pushes the optimum to a single-stage design. The shift from
 * beta = 1.3 to 1.1 alone moves the average design point from 22.5
 * to ~17 FO4.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/units.hh"
#include "core/metric.hh"
#include "core/optimum_solver.hh"
#include "core/power_model.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    SweepEngine engine(opt.engineOptions());
    const SweepResult sweep = sweepWorkload(engine, opt, "gcc95");
    engine.printSummary(std::cerr);
    // The paper's Eq. 1 machine and the sweep's power parameters at
    // latch exponent beta, leakage recalibrated at the reference depth.
    const TheoryModel th = sweep.theoryModel(true);
    const MachineParams &mp = th.machine;
    auto powerAt = [&](double beta) {
        PowerParams pw = th.power;
        pw.beta = beta;
        return PowerModel::calibrateLeakage(
            mp, pw, sweep.options.leakage_fraction,
            sweep.options.reference_depth);
    };

    const std::vector<double> betas{1.0, 1.1, 1.3, 1.5, 1.8};
    std::vector<PowerPerformanceMetric> metrics;
    std::vector<OptimumResult> optima;
    for (double beta : betas) {
        const PowerParams pw = powerAt(beta);
        metrics.emplace_back(mp, pw, 3.0);
        optima.push_back(OptimumSolver(mp, pw).solveExact(3.0));
    }

    banner(opt,
           "Fig. 9: theory BIPS^3/W vs depth for latch exponents "
           "(normalized per curve)");
    TableWriter t(opt.style());
    t.addColumn("p", 0);
    for (double beta : betas) {
        char head[32];
        std::snprintf(head, sizeof(head), "beta_%.1f", beta);
        t.addColumn(head, 4);
    }
    for (int p = 1; p <= 28; ++p) {
        t.beginRow();
        t.cell(p);
        for (std::size_t i = 0; i < metrics.size(); ++i)
            t.cell(metrics[i](static_cast<double>(p)) /
                   optima[i].metric);
    }
    t.render(std::cout);

    banner(opt, "optimum depth vs beta");
    TableWriter s(opt.style());
    s.addColumn("beta", 1);
    s.addColumn("p_opt", 2);
    s.addColumn("FO4_per_stage", 1);
    s.addColumn("pipelined");
    for (std::size_t i = 0; i < betas.size(); ++i) {
        s.beginRow();
        s.cell(betas[i]);
        s.cell(optima[i].p_opt);
        s.cell(optima[i].fo4_per_stage);
        s.cell(optima[i].interior ? "yes" : "no (single stage)");
    }
    // beta >= 2: no pipelined solution.
    {
        const OptimumResult r =
            OptimumSolver(mp, powerAt(2.2)).solveExact(3.0);
        s.beginRow();
        s.cell(2.2);
        s.cell(r.p_opt);
        s.cell(r.fo4_per_stage);
        s.cell(r.interior ? "yes" : "no (single stage)");
    }
    s.render(std::cout);

    if (!opt.csv) {
        std::printf("\npaper: strong beta dependence; beta > 2 -> "
                    "single-stage optimum\n");
    }
    return 0;
}
