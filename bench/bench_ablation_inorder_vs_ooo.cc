/**
 * @file
 * Ablation: in-order vs out-of-order execution.
 *
 * The paper uses the in-order model and cites Hartstein & Puzak
 * (ISCA 2002): in-order vs out-of-order makes "only minor
 * differences in the pipeline depth optimization", attributable to
 * shifts in the superscalar parameter alpha and hazard parameter
 * gamma. This bench checks that claim on a cross-class workload
 * sample: same traces, both execution models, BIPS^3/W optima and
 * extracted parameters side by side.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    const char *names[] = {"db1", "websrv", "gcc95", "gzip00", "swim"};

    TableWriter t(opt.style());
    t.addColumn("workload");
    t.addColumn("inorder_popt", 2);
    t.addColumn("ooo_popt", 2);
    t.addColumn("delta_pct", 1);
    t.addColumn("inorder_alpha", 2);
    t.addColumn("ooo_alpha", 2);
    t.addColumn("inorder_cpi8", 3);
    t.addColumn("ooo_cpi8", 3);

    SweepEngine engine(opt.engineOptions());
    double worst_delta = 0.0;
    for (const char *name : names) {
        SweepOptions io_opt = opt.sweepOptions();
        SweepOptions ooo_opt = io_opt;
        ooo_opt.in_order = false;
        ooo_opt.min_depth = 3; // rename takes a stage

        const SweepResult io =
            sweepWorkload(engine, findWorkload(name), io_opt);
        const SweepResult ooo =
            sweepWorkload(engine, findWorkload(name), ooo_opt);

        bool i1 = false, i2 = false;
        const double p_io = io.cubicFitOptimum(3.0, true, &i1);
        const double p_ooo = ooo.cubicFitOptimum(3.0, true, &i2);
        const double delta = 100.0 * (p_ooo - p_io) / p_io;
        worst_delta = std::max(worst_delta, std::fabs(delta));

        t.beginRow();
        t.cell(name);
        t.cell(p_io);
        t.cell(p_ooo);
        t.cell(delta);
        t.cell(io.extracted.alpha);
        t.cell(ooo.extracted.alpha);
        t.cell(io.runAt(io_opt.reference_depth).cpi());
        t.cell(ooo.runAt(ooo_opt.reference_depth).cpi());
    }
    // Every sweep before any output: a hole leaves stdout empty.
    banner(opt, "in-order vs out-of-order: BIPS^3/W optima and "
                "extracted parameters");
    t.render(std::cout);

    if (!opt.csv) {
        std::printf("\nworst |optimum shift|: %.1f%%\n", worst_delta);
        std::printf("ISCA'02 via the paper: \"only minor differences in "
                    "the pipeline depth optimization\"\n");
    }
    engine.printSummary(std::cerr);
    return 0;
}
