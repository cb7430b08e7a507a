#include "sweep/depth_sweep.hh"

#include <algorithm>
#include <cmath>

#include "calib/extract.hh"
#include "common/logging.hh"
#include "core/metric.hh"
#include "math/least_squares.hh"
#include "sweep/sweep_engine.hh"

namespace pipedepth
{

PipelineConfig
SweepOptions::configAtDepth(int depth) const
{
    PipelineConfig config = PipelineConfig::forDepth(depth, in_order, policy);
    config.warmup_instructions = warmup_instructions;
    config.predictor = predictor;
    return config;
}

void
SweepOptions::validate() const
{
    if (min_depth < 2 || max_depth > 30 || min_depth >= max_depth) {
        PP_FATAL("SweepOptions: bad depth range [", min_depth, ", ",
                 max_depth, "] (must satisfy 2 <= min < max <= 30)");
    }
    if (reference_depth < min_depth || reference_depth > max_depth) {
        PP_FATAL("SweepOptions: reference depth ", reference_depth,
                 " outside sweep range [", min_depth, ", ", max_depth,
                 "]");
    }
    if (trace_length == 0)
        PP_FATAL("SweepOptions: trace_length must be positive");
    if (warmup_instructions >= trace_length) {
        PP_FATAL("SweepOptions: warmup_instructions (",
                 warmup_instructions, ") must be below trace_length (",
                 trace_length, ")");
    }
    // NaN fails every comparison, so test finiteness explicitly.
    if (!std::isfinite(p_d) || p_d <= 0.0)
        PP_FATAL("SweepOptions: p_d must be finite and positive (got ",
                 p_d, ")");
    if (!std::isfinite(leakage_fraction) || leakage_fraction < 0.0 ||
        leakage_fraction >= 1.0) {
        PP_FATAL("SweepOptions: leakage_fraction must be in [0, 1) "
                 "(got ",
                 leakage_fraction, ")");
    }
}

std::vector<double>
SweepResult::depths() const
{
    std::vector<double> out;
    out.reserve(runs.size());
    for (const auto &r : runs)
        out.push_back(static_cast<double>(r.depth));
    return out;
}

std::vector<double>
SweepResult::metric(double m, bool gated) const
{
    std::vector<double> out;
    out.reserve(runs.size());
    for (const auto &r : runs)
        out.push_back(power_model.metric(r, m, gated));
    return out;
}

std::vector<double>
SweepResult::bips() const
{
    std::vector<double> out;
    out.reserve(runs.size());
    for (const auto &r : runs)
        out.push_back(r.bips());
    return out;
}

const SimResult &
SweepResult::runAt(int depth) const
{
    const auto it = std::find_if(
        runs.begin(), runs.end(),
        [depth](const SimResult &r) { return r.depth == depth; });
    PP_ASSERT(it != runs.end(), "sweep of ", spec.name, " has no depth ",
              depth);
    return *it;
}

double
SweepResult::cubicFitOptimum(double m, bool gated, bool *interior) const
{
    const CubicPeak peak = fitCubicPeak(depths(), metric(m, gated));
    if (interior)
        *interior = peak.interior;
    return peak.x;
}

double
SweepResult::cubicFitPerformanceOptimum(bool *interior) const
{
    const CubicPeak peak = fitCubicPeak(depths(), bips());
    if (interior)
        *interior = peak.interior;
    return peak.x;
}

TheoryModel
SweepResult::theoryModel(bool gated, bool extended) const
{
    MachineParams mp = extracted;
    if (!extended)
        mp.c_mem = 0.0; // the paper's Eq. 1
    PowerParams pw;
    pw.p_d = options.p_d;
    pw.beta = power_model.factors().beta_unit;
    pw.gating = gated ? ClockGating::FineGrained : ClockGating::None;
    return {mp, PowerModel::calibrateLeakage(
                    mp, pw, options.leakage_fraction,
                    static_cast<double>(options.reference_depth))};
}

std::vector<double>
SweepResult::theoryCurve(double m, bool gated, double *r2,
                         bool extended) const
{
    const TheoryModel model = theoryModel(gated, extended);
    const PowerPerformanceMetric theory(model.machine, model.power, m);
    std::vector<double> t;
    for (double depth : depths())
        t.push_back(theory(depth));

    const std::vector<double> sim = metric(m, gated);
    const double scale = fitScaleFactor(sim, t);
    for (auto &v : t)
        v *= scale;
    if (r2)
        *r2 = rSquared(sim, t);
    return t;
}

std::vector<double>
SweepResult::latchCounts() const
{
    std::vector<double> out;
    out.reserve(runs.size());
    for (const auto &r : runs)
        out.push_back(power_model.latchCount(r.config));
    return out;
}

SweepResult
assembleSweep(const WorkloadSpec &spec, const SweepOptions &options,
              std::vector<SimResult> runs)
{
    for (const SimResult &r : runs) {
        PP_ASSERT(r.cycles != 0, "sweep of ", spec.name,
                  " has a hole at depth ", r.depth);
    }
    SweepResult sweep{spec,
                      options,
                      std::move(runs),
                      ActivityPowerModel(UnitPowerFactors::defaults(),
                                         options.p_d, 0.0),
                      MachineParams{}};
    const SimResult &reference = sweep.runAt(options.reference_depth);
    sweep.power_model = sweep.power_model.withLeakageFraction(
        reference, options.leakage_fraction);
    sweep.extracted = extractMachineParams(reference);
    return sweep;
}

std::optional<SweepResult>
runDepthSweep(const WorkloadSpec &spec, const SweepOptions &options)
{
    SweepEngine engine;
    return engine.runSweep(spec, options);
}

double
measuredLatchExponent(const SweepResult &sweep)
{
    const PowerLawFit fit =
        fitPowerLaw(sweep.depths(), sweep.latchCounts());
    return fit.k;
}

} // namespace pipedepth
