/**
 * @file
 * The paper has no numbered tables; its headline numbers live in the
 * prose of Secs. 4-6. This bench regenerates them all in one table:
 *
 *  - performance-only optimum: ~22 stages / 8.9 FO4 (theory with
 *    extracted parameters; simulated BIPS peaks are shallower because
 *    the simulator also carries constant-time memory stalls);
 *  - BIPS^3/W optimum, blind cubic fit to simulation: 8-9 stages
 *    (18-20 FO4) on average;
 *  - BIPS^3/W optimum, best theoretical fit: ~7 stages (22.5 FO4),
 *    "about 20% shorter" than the cubic-fit number;
 *  - no pipelined optimum for BIPS/W at typical parameters;
 *  - existence conditions m > beta (and m > 2 beta without leakage).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/units.hh"
#include "core/optimum_solver.hh"
#include "core/power_model.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);
    const auto sweeps = sweepCatalog(opt);

    double perf_theory = 0.0, m3_cubic = 0.0, m3_theory = 0.0;
    double perf_cubic = 0.0;
    int m1_interior = 0;
    const std::string n_text = std::to_string(sweeps.size());
    for (const SweepResult &s : sweeps) {
        // Headline numbers use the paper's Eq. 1 (c_mem = 0).
        const TheoryModel th = s.theoryModel(true);
        perf_theory +=
            PerformanceModel(th.machine).performanceOnlyOptimum();

        bool interior = false;
        perf_cubic += s.cubicFitPerformanceOptimum(&interior);
        m3_cubic += s.cubicFitOptimum(3.0, true, &interior);
        s.cubicFitOptimum(1.0, true, &interior);
        m1_interior += interior;

        m3_theory +=
            OptimumSolver(th.machine, th.power).solveExact(3.0).p_opt;
    }
    const auto n = static_cast<double>(sweeps.size());
    perf_theory /= n;
    perf_cubic /= n;
    m3_cubic /= n;
    m3_theory /= n;

    const std::string title =
        "headline numbers (catalog averages, " + n_text + " workloads)";
    banner(opt, title.c_str());
    TableWriter t(opt.style());
    t.addColumn("quantity");
    t.addColumn("paper");
    t.addColumn("this_repro");
    auto row = [&t](const char *what, const char *paper,
                    const std::string &ours) {
        t.beginRow();
        t.cell(what);
        t.cell(paper);
        t.cell(ours);
    };
    auto fmt = [](double stages) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.1f stages / %.1f FO4", stages,
                      cycleTimeFo4(stages, 140.0, 2.5));
        return std::string(buf);
    };
    row("perf-only optimum (theory, extracted params)",
        "22 stages / 8.9 FO4", fmt(perf_theory));
    row("perf-only optimum (sim cubic fit)", "-- (ISCA'02: ~22)",
        fmt(perf_cubic));
    row("BIPS^3/W optimum (sim cubic fit)", "8-9 stages / 18-20 FO4",
        fmt(m3_cubic));
    row("BIPS^3/W optimum (theory)", "6.25-7 stages / 22.5-25 FO4",
        fmt(m3_theory));
    row("theory/cubic-fit ratio", "~0.8 (\"about 20% shorter\")",
        std::to_string(m3_theory / m3_cubic).substr(0, 5));
    row("workloads with a BIPS/W pipelined optimum", "0 of 55",
        std::to_string(m1_interior) + " of " + n_text);
    t.render(std::cout);

    banner(opt, "existence conditions (Sec. 2)");
    TableWriter c(opt.style());
    c.addColumn("condition");
    c.addColumn("paper");
    c.addColumn("this_repro");
    MachineParams mp;
    PowerParams pw;
    pw.beta = 1.3;
    pw.gating = ClockGating::None;
    {
        // With leakage: m > beta necessary.
        PowerParams leaky = PowerModel::calibrateLeakage(mp, pw, 0.15,
                                                         8.0);
        const OptimumSolver solver(mp, leaky);
        c.beginRow();
        c.cell("m = 1 vs beta = 1.3 (m > beta fails)");
        c.cell("no pipelined solution");
        c.cell(solver.solveExact(1.0).interior ? "interior optimum (!)"
                                               : "no pipelined solution");
        c.beginRow();
        c.cell("m = 3 vs beta = 1.3 (m > beta holds)");
        c.cell("pipelined optimum");
        c.cell(solver.solveExact(3.0).interior ? "pipelined optimum"
                                               : "none (!)");
    }
    {
        // Without leakage the binding condition tightens to m > 2 beta.
        PowerParams leakless = pw;
        leakless.p_l = 0.0;
        const OptimumSolver solver(mp, leakless);
        c.beginRow();
        c.cell("m = 2 vs 2*beta = 2.6, leakless (m > 2 beta fails)");
        c.cell("no pipelined solution");
        c.cell(solver.solveExact(2.0).interior ? "interior optimum (!)"
                                               : "no pipelined solution");
        c.beginRow();
        c.cell("m = 3 vs 2*beta = 2.6, leakless (m > 2 beta holds)");
        c.cell("pipelined optimum");
        c.cell(solver.solveExact(3.0).interior ? "pipelined optimum"
                                               : "none (!)");
    }
    c.render(std::cout);
    return 0;
}
