/**
 * @file
 * Extension study: Eq. 1 plus a constant-absolute-time stall term.
 *
 * The paper's model carries no term for off-chip memory time, which
 * is constant in seconds and therefore neither a 1/alpha nor a
 * gamma*p effect; our simulator measures it directly
 * (SimResult::constantTimeStallCycles). Adding c_mem to Eq. 1 keeps
 * the optimality condition an exactly-solvable quartic (see
 * optimum_solver.hh) and markedly improves the theory overlay for
 * memory- and FP-heavy workloads, where the paper's own fits are
 * weakest. For each workload class representative this bench prints
 * the paper-model and extended-model overlay r^2 and optima.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/optimum_solver.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    TableWriter t(opt.style());
    t.addColumn("workload");
    t.addColumn("class");
    t.addColumn("c_mem_fo4", 1);
    t.addColumn("r2_paper", 3);
    t.addColumn("r2_extended", 3);
    t.addColumn("popt_paper", 2);
    t.addColumn("popt_extended", 2);
    t.addColumn("popt_sim", 2);

    SweepEngine engine(opt.engineOptions());
    for (const char *name :
         {"db1", "websrv", "gcc95", "gzip00", "swim", "tomcatv"}) {
        const SweepResult sweep = sweepWorkload(engine, opt, name);

        double r2_paper = 0.0, r2_ext = 0.0;
        sweep.theoryCurve(3.0, true, &r2_paper, false);
        sweep.theoryCurve(3.0, true, &r2_ext, true);

        auto popt = [&sweep](bool extended) {
            const TheoryModel th = sweep.theoryModel(true, extended);
            return OptimumSolver(th.machine, th.power).solveExact(3.0).p_opt;
        };

        bool interior = false;
        const double sim = sweep.cubicFitOptimum(3.0, true, &interior);

        t.beginRow();
        t.cell(name);
        t.cell(workloadClassName(sweep.spec.cls));
        t.cell(sweep.extracted.c_mem);
        t.cell(r2_paper);
        t.cell(r2_ext);
        t.cell(popt(false));
        t.cell(popt(true));
        t.cell(sim);
    }
    // Every sweep before any output: a hole leaves stdout empty.
    banner(opt, "constant-time extension: theory overlay quality and "
                "optima (BIPS^3/W, gated)");
    t.render(std::cout);

    if (!opt.csv) {
        std::printf("\nreading: the extension leaves hazard-light "
                    "integer workloads nearly unchanged and repairs "
                    "the fit (and optimum prediction) where constant-"
                    "time memory stalls dominate.\n");
    }
    engine.printSummary(std::cerr);
    return 0;
}
