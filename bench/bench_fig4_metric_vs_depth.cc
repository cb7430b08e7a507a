/**
 * @file
 * Reproduces Figs. 4a/4b/4c: BIPS^3/W versus pipeline depth for a
 * "modern" workload, a SPECint workload and a floating point
 * workload — simulation and theory, clock-gated and non-clock-gated.
 *
 * Paper expectations: the clock-gated curve lies above the non-gated
 * one (less power for the same performance); the theory, scaled by a
 * single least-squares factor, tracks the simulated points; the
 * gated optimum sits deeper than the ungated one; FP optima are the
 * deepest of the three workload types.
 */

#include <iostream>

#include "bench_util.hh"

using namespace pipedepth;

namespace
{

void
oneWorkload(const BenchOptions &opt, const char *figure,
            const SweepResult &sweep)
{
    const auto sim_g = sweep.metric(3.0, true);
    const auto sim_u = sweep.metric(3.0, false);
    double r2_g = 0.0, r2_u = 0.0;
    const auto th_g = sweep.theoryCurve(3.0, true, &r2_g);
    const auto th_u = sweep.theoryCurve(3.0, false, &r2_u);
    const auto depths = sweep.depths();

    // Scale to the gated simulated maximum, like the paper's y axes.
    double scale = 0.0;
    for (double v : sim_g)
        scale = std::max(scale, v);

    std::string title = std::string("Fig. ") + figure + ": BIPS^3/W vs "
                        "depth, workload '" + sweep.spec.name + "' (" +
                        workloadClassName(sweep.spec.cls) + ")";
    banner(opt, title.c_str());

    TableWriter t(opt.style());
    t.addColumn("p", 0);
    t.addColumn("sim_gated", 4);
    t.addColumn("theory_gated", 4);
    t.addColumn("sim_ungated", 4);
    t.addColumn("theory_ungated", 4);
    for (std::size_t i = 0; i < depths.size(); ++i) {
        t.beginRow();
        t.cell(depths[i]);
        t.cell(sim_g[i] / scale);
        t.cell(th_g[i] / scale);
        t.cell(sim_u[i] / scale);
        t.cell(th_u[i] / scale);
    }
    t.render(std::cout);

    bool ig = false, iu = false;
    const double og = sweep.cubicFitOptimum(3.0, true, &ig);
    const double ou = sweep.cubicFitOptimum(3.0, false, &iu);
    if (!opt.csv) {
        std::printf("cubic-fit optimum: gated %.1f stages%s, ungated "
                    "%.1f stages%s; theory fit r2: gated %.3f, ungated "
                    "%.3f\n",
                    og, ig ? "" : " (endpoint)", ou,
                    iu ? "" : " (endpoint)", r2_g, r2_u);
        std::printf("extracted params: alpha %.2f, gamma %.2f, N_H/N_I "
                    "%.3f\n",
                    sweep.extracted.alpha, sweep.extracted.gamma,
                    sweep.extracted.hazard_ratio);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);
    SweepEngine engine(opt.engineOptions());
    // Every sweep before any table: a hole leaves stdout empty.
    const SweepResult modern = sweepWorkload(engine, opt, "websrv");
    const SweepResult specint = sweepWorkload(engine, opt, "gcc95");
    const SweepResult fp = sweepWorkload(engine, opt, "swim");
    oneWorkload(opt, "4a", modern);
    oneWorkload(opt, "4b", specint);
    oneWorkload(opt, "4c", fp);
    engine.printSummary(std::cerr);
    return 0;
}
