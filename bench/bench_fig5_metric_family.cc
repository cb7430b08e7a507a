/**
 * @file
 * Reproduces Fig. 5: BIPS, BIPS^3/W, BIPS^2/W and BIPS/W versus
 * pipeline depth for the clock-gated modern workload of Fig. 4a.
 *
 * Paper expectations: interior peaks for BIPS (deep, ~20 stages) and
 * BIPS^3/W (shallow, ~7); BIPS^2/W and BIPS/W decline from the
 * shallowest design ("the optimum metric for a 1 stage design").
 */

#include <iostream>

#include "bench_util.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);
    SweepEngine engine(opt.engineOptions());
    const SweepResult sweep = sweepWorkload(engine, opt, "websrv");
    engine.printSummary(std::cerr);

    const auto bips = sweep.bips();
    const auto m1 = sweep.metric(1.0, true);
    const auto m2 = sweep.metric(2.0, true);
    const auto m3 = sweep.metric(3.0, true);
    const auto depths = sweep.depths();

    auto normalize = [](std::vector<double> v) {
        double peak = 0.0;
        for (double x : v)
            peak = std::max(peak, x);
        for (double &x : v)
            x /= peak;
        return v;
    };
    const auto nb = normalize(bips);
    const auto n1 = normalize(m1);
    const auto n2 = normalize(m2);
    const auto n3 = normalize(m3);

    banner(opt,
           "Fig. 5: metric family vs depth (clock-gated, normalized "
           "to each curve's peak)");
    TableWriter t(opt.style());
    t.addColumn("p", 0);
    t.addColumn("BIPS", 4);
    t.addColumn("BIPS3_W", 4);
    t.addColumn("BIPS2_W", 4);
    t.addColumn("BIPS_W", 4);
    for (std::size_t i = 0; i < depths.size(); ++i) {
        t.beginRow();
        t.cell(depths[i]);
        t.cell(nb[i]);
        t.cell(n3[i]);
        t.cell(n2[i]);
        t.cell(n1[i]);
    }
    t.render(std::cout);

    if (!opt.csv) {
        // m = 0 stands for the BIPS (performance-only) curve.
        auto peak_at = [&](double m) {
            bool interior = false;
            const double x =
                m == 0.0 ? sweep.cubicFitPerformanceOptimum(&interior)
                         : sweep.cubicFitOptimum(m, true, &interior);
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.1f%s", x,
                          interior ? "" : " (endpoint)");
            return std::string(buf);
        };
        std::printf("\ncubic-fit peaks: BIPS %s | BIPS^3/W %s | "
                    "BIPS^2/W %s | BIPS/W %s\n",
                    peak_at(0.0).c_str(), peak_at(3.0).c_str(),
                    peak_at(2.0).c_str(), peak_at(1.0).c_str());
        std::printf("paper: peaks for BIPS (~20) and BIPS^3/W (~7); "
                    "none for BIPS^2/W and BIPS/W\n");
    }
    return 0;
}
