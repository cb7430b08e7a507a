/**
 * @file
 * Reproduces Fig. 6: the distribution of optimum pipeline depths
 * (blind cubic fit of the clock-gated BIPS^3/W curve) over all 55
 * workloads.
 *
 * Paper expectation: a distribution centered around 8 stages (20 FO4
 * per stage); the performance-only optimum sits near 22 stages.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"
#include "common/units.hh"
#include "stats/stats.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);
    const auto sweeps = sweepCatalog(opt);

    Histogram histogram;
    Summary summary;
    for (const SweepResult &s : sweeps) {
        bool interior = false;
        const double p = s.cubicFitOptimum(3.0, true, &interior);
        histogram.add(p);
        summary.add(p);
    }
    const double mean = summary.mean();

    const std::string title =
        "Fig. 6: distribution of BIPS^3/W optimum depths, all " +
        std::to_string(sweeps.size()) + " workloads";
    banner(opt, title.c_str());
    TableWriter t(opt.style());
    t.addColumn("p_opt", 0);
    t.addColumn("workloads", 0);
    t.addColumn("bar");
    for (const auto &[depth, count] : histogram.bins()) {
        t.beginRow();
        t.cell(depth);
        t.cell(count);
        t.cell(std::string(static_cast<std::size_t>(count), '#'));
    }
    t.render(std::cout);

    if (!opt.csv) {
        std::printf("\nmean optimum: %.2f stages = %.1f FO4/stage "
                    "(median %.2f, mode %d, stddev %.2f)\n",
                    mean, cycleTimeFo4(mean, 140.0, 2.5),
                    summary.median(), histogram.mode(),
                    summary.stddev());
        std::printf("paper: centered around 8 stages (20 FO4)\n");
    }
    return 0;
}
