/**
 * @file
 * Ablation: branch predictor quality and the optimum depth.
 *
 * The theory says p_opt^2 ~ 1/N_H (Eq. 2 and the B coefficients of
 * Eq. 7): fewer hazards, deeper optimum. Branch mispredictions are
 * the dominant depth-scaled hazard, so swapping predictors is a
 * direct experimental handle on N_H. This bench runs the same traces
 * under always-taken, bimodal and gshare front ends and reports the
 * mispredict rates, extracted hazard ratios and BIPS^3/W optima.
 */

#include <iostream>

#include "bench_util.hh"

using namespace pipedepth;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    TableWriter t(opt.style());
    t.addColumn("workload");
    t.addColumn("predictor");
    t.addColumn("mpki", 1);
    t.addColumn("NH_per_instr", 3);
    t.addColumn("p_opt", 2);

    SweepEngine engine(opt.engineOptions());
    for (const char *name : {"gcc95", "websrv"}) {
        for (PredictorKind kind :
             {PredictorKind::AlwaysTaken, PredictorKind::Bimodal,
              PredictorKind::Gshare}) {
            SweepOptions so = opt.sweepOptions();
            so.predictor = kind;
            const SweepResult sweep =
                sweepWorkload(engine, findWorkload(name), so);
            const SimResult &ref = sweep.runAt(so.reference_depth);

            t.beginRow();
            t.cell(name);
            t.cell(makePredictor(kind)->name());
            t.cell(1000.0 * static_cast<double>(ref.mispredicts) /
                   static_cast<double>(ref.instructions));
            t.cell(sweep.extracted.hazard_ratio);
            t.cell(sweep.cubicFitOptimum(3.0, true, nullptr));
        }
    }
    // Every sweep before any output: a hole leaves stdout empty.
    banner(opt, "predictor ablation: hazards and BIPS^3/W optimum");
    t.render(std::cout);
    engine.printSummary(std::cerr);

    if (!opt.csv) {
        std::printf("\nexpected from Eq. 2/7: better prediction -> "
                    "lower N_H -> deeper optimum\n");
    }
    return 0;
}
