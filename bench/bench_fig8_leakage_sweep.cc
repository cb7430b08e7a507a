/**
 * @file
 * Reproduces Fig. 8: the BIPS^3/W metric versus depth for leakage
 * fractions 0%, 30%, 50% and 90% of total power (dynamic power held
 * constant, leakage increased).
 *
 * Paper expectation: as leakage grows, the optimum moves to deeper
 * pipelines (from ~7 to ~14 stages in their example). Dynamic power
 * pushes the optimum shallower; leakage pushes it deeper.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/metric.hh"
#include "core/optimum_solver.hh"
#include "core/power_model.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    // SPECint-like extracted parameters (cf. Fig. 8's "particular
    // SPEC95 integer workload").
    SweepEngine engine(opt.engineOptions());
    const SweepResult sweep = sweepWorkload(engine, opt, "gcc95");
    engine.printSummary(std::cerr);
    // The paper's Eq. 1 machine and the sweep's power parameters;
    // leakage is recalibrated per curve at the reference depth.
    const TheoryModel th = sweep.theoryModel(true);
    const MachineParams &mp = th.machine;

    const std::vector<double> fracs{0.0, 0.30, 0.50, 0.90};
    std::vector<PowerPerformanceMetric> metrics;
    std::vector<double> optima;
    std::vector<double> peaks;
    for (double f : fracs) {
        const PowerParams pw = PowerModel::calibrateLeakage(
            mp, th.power, f, sweep.options.reference_depth);
        metrics.emplace_back(mp, pw, 3.0);
        const OptimumSolver solver(mp, pw);
        const OptimumResult r = solver.solveExact(3.0);
        optima.push_back(r.p_opt);
        peaks.push_back(r.metric);
    }

    banner(opt,
           "Fig. 8: theory BIPS^3/W vs depth for increasing leakage "
           "(normalized per curve)");
    TableWriter t(opt.style());
    t.addColumn("p", 0);
    t.addColumn("leak_0pct", 4);
    t.addColumn("leak_30pct", 4);
    t.addColumn("leak_50pct", 4);
    t.addColumn("leak_90pct", 4);
    for (int p = 1; p <= 28; ++p) {
        t.beginRow();
        t.cell(p);
        for (std::size_t i = 0; i < metrics.size(); ++i)
            t.cell(metrics[i](static_cast<double>(p)) / peaks[i]);
    }
    t.render(std::cout);

    banner(opt, "optimum depth vs leakage fraction");
    TableWriter s(opt.style());
    s.addColumn("leakage_pct", 0);
    s.addColumn("p_opt", 2);
    for (std::size_t i = 0; i < fracs.size(); ++i) {
        s.beginRow();
        s.cell(fracs[i] * 100.0);
        s.cell(optima[i]);
    }
    s.render(std::cout);

    if (!opt.csv) {
        std::printf("\nshift 0%% -> 90%%: %.2f -> %.2f stages "
                    "(ratio %.2fx)\n",
                    optima.front(), optima.back(),
                    optima.back() / optima.front());
        std::printf("paper: 7 -> 14 stages (2x) for their workload\n");
    }
    return 0;
}
