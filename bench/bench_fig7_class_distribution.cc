/**
 * @file
 * Reproduces Fig. 7: the Fig. 6 distribution split by workload class.
 *
 * Paper expectations: traditional (legacy) workloads peak at ~9
 * stages (18 FO4), SPECint at ~7 (22.5 FO4), modern between 7 and 8
 * (~21 FO4), and floating point spread across 6..16 stages with the
 * deepest optima.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <map>

#include "bench_util.hh"
#include "common/units.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);
    const auto sweeps = sweepCatalog(opt);

    struct ClassStats
    {
        std::vector<double> optima;
    };
    std::map<std::string, ClassStats> by_class;
    std::map<std::string, std::map<int, int>> histograms;

    for (const SweepResult &s : sweeps) {
        bool interior = false;
        const double p = s.cubicFitOptimum(3.0, true, &interior);
        const std::string cls = workloadClassName(s.spec.cls);
        by_class[cls].optima.push_back(p);
        ++histograms[cls][static_cast<int>(std::lround(p))];
    }

    banner(opt, "Fig. 7: optimum-depth distribution by workload class");
    TableWriter t(opt.style());
    t.addColumn("class");
    t.addColumn("p_opt", 0);
    t.addColumn("workloads", 0);
    t.addColumn("bar");
    for (const auto &[cls, hist] : histograms) {
        for (const auto &[depth, count] : hist) {
            t.beginRow();
            t.cell(cls);
            t.cell(depth);
            t.cell(count);
            t.cell(std::string(static_cast<std::size_t>(count), '#'));
        }
    }
    t.render(std::cout);

    banner(opt, "class summary");
    TableWriter s(opt.style());
    s.addColumn("class");
    s.addColumn("mean_p_opt", 2);
    s.addColumn("min", 1);
    s.addColumn("max", 1);
    s.addColumn("FO4_per_stage", 1);
    for (const auto &[cls, stats] : by_class) {
        double sum = 0.0;
        for (double p : stats.optima)
            sum += p;
        const double mean = sum / static_cast<double>(stats.optima.size());
        s.beginRow();
        s.cell(cls);
        s.cell(mean);
        s.cell(*std::min_element(stats.optima.begin(),
                                 stats.optima.end()));
        s.cell(*std::max_element(stats.optima.begin(),
                                 stats.optima.end()));
        s.cell(cycleTimeFo4(mean, 140.0, 2.5));
    }
    s.render(std::cout);

    // Why the classes separate: the stall-ledger composition at the
    // reference depth. Legacy/int classes spend their cycles in
    // depth-scaled hazard buckets (shallow optima); FP spends them in
    // serialization (unit_busy / superscalar loss), which deepens the
    // optimum. Shares of total cycles; the ledger conserves, so each
    // row plus its base-work/drain columns sums to 1.
    banner(opt, "stall ledger composition at reference depth");
    TableWriter l(opt.style());
    l.addColumn("class");
    for (std::size_t b = 0; b < kNumStallBuckets; ++b)
        l.addColumn(stallBucketName(static_cast<StallBucket>(b)), 3);
    std::map<std::string, std::array<double, kNumStallBuckets>> shares;
    std::map<std::string, int> counts;
    for (const auto &s2 : sweeps) {
        const SimResult &r = s2.runAt(s2.options.reference_depth);
        auto &acc = shares[workloadClassName(s2.spec.cls)];
        ++counts[workloadClassName(s2.spec.cls)];
        for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
            acc[b] += static_cast<double>(
                          r.ledgerCycles(static_cast<StallBucket>(b))) /
                      static_cast<double>(r.cycles);
        }
    }
    for (const auto &[cls, acc] : shares) {
        l.beginRow();
        l.cell(cls);
        for (std::size_t b = 0; b < kNumStallBuckets; ++b)
            l.cell(acc[b] / counts.at(cls));
    }
    l.render(std::cout);

    if (!opt.csv) {
        std::printf("\npaper: legacy ~9 (18 FO4), SPECint ~7 "
                    "(22.5 FO4), modern 7-8 (~21 FO4), FP spread "
                    "6-16 and deepest\n");
    }
    return 0;
}
