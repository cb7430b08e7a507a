/**
 * @file
 * Depth sweeps: the experiment driver behind every figure.
 *
 * A DepthSweep simulates one workload at a range of pipeline depths
 * (the paper uses 2..25), computes the power/performance metric per
 * depth for either gating mode, extracts the simulated optimum with
 * the paper's blind cubic fit, and overlays the analytic theory
 * (parameters extracted from a single reference run, one fitted scale
 * factor) exactly as in Figs. 4 and 5.
 *
 * runDepthSweep() is implemented on top of the SweepEngine
 * (sweep_engine.hh), which schedules cells in parallel and memoizes
 * results on disk; use the engine directly to sweep many workloads.
 */

#ifndef PIPEDEPTH_SWEEP_DEPTH_SWEEP_HH
#define PIPEDEPTH_SWEEP_DEPTH_SWEEP_HH

#include <optional>
#include <vector>

#include "core/params.hh"
#include "power/activity_power.hh"
#include "trace/trace.hh"
#include "uarch/sim_result.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{

/** Options of a sweep. */
struct SweepOptions
{
    int min_depth = 2;
    int max_depth = 25;
    int reference_depth = 8;   //!< depth used for parameter extraction
    std::size_t trace_length = 200000;
    std::size_t warmup_instructions = 60000; //!< structure warm-up
    double p_d = 1.0;          //!< dynamic energy per latch-cycle
    double leakage_fraction = 0.15; //!< of gated power at the reference
    bool in_order = true;
    PredictorKind predictor = PredictorKind::Bimodal;
    ExpansionPolicy policy = ExpansionPolicy::Uniform;

    /** The pipeline configuration of one cell of this sweep. */
    PipelineConfig configAtDepth(int depth) const;

    /**
     * Abort (fatal) on unusable options, naming the offending field:
     * depth bounds outside [2, 30] or inverted, reference depth
     * outside the range, zero trace length, and NaN or out-of-range
     * p_d / leakage_fraction. Runs before any cell simulates so
     * garbage never reaches the grid.
     */
    void validate() const;
};

/** The analytic model calibrated to a sweep (SweepResult::theoryModel). */
struct TheoryModel
{
    MachineParams machine;
    PowerParams power;
};

/**
 * All simulation results of one workload across depths: a complete
 * grid. The engine never assembles one around a hole (a cell whose
 * walk failed), so every run is live and every accessor below covers
 * every depth.
 */
struct SweepResult
{
    WorkloadSpec spec;
    SweepOptions options;
    std::vector<SimResult> runs;      //!< one per depth, ascending
    ActivityPowerModel power_model;   //!< with calibrated leakage
    MachineParams extracted;          //!< theory params (reference run)

    /** The run at @p depth, which the sweep must hold. */
    const SimResult &runAt(int depth) const;

    /** Depths as doubles (x axis of every figure). */
    std::vector<double> depths() const;

    /** Simulated metric BIPS^m/W per depth. */
    std::vector<double> metric(double m, bool gated) const;

    /** Simulated BIPS per depth (m -> infinity). */
    std::vector<double> bips() const;

    /**
     * The paper's simulated optimum: blind least-squares cubic fit
     * through metric(m) samples, peak within the sampled range.
     * Returns the peak depth; interior=false collapses to an
     * endpoint. Below 4 depths (a narrow range): 0 ("no optimum"),
     * not interior.
     */
    double cubicFitOptimum(double m, bool gated, bool *interior) const;

    /** As above for the BIPS (performance-only) curve. */
    double cubicFitPerformanceOptimum(bool *interior) const;

    /**
     * The analytic model at the extracted parameters, its power
     * mirroring power_model: same p_d, latch exponent beta and
     * leakage fraction at reference_depth. c_mem as in theoryCurve.
     */
    TheoryModel theoryModel(bool gated, bool extended = false) const;

    /**
     * Analytic theory curve (theoryModel) for the same metric, scaled
     * to the simulation with a single least-squares factor (the
     * paper's "only adjustable parameter"). Returns one value per
     * depth; r2 (optional) receives the goodness of fit.
     *
     * With @p extended = false (default) the paper's Eq. 1 is used
     * (c_mem forced to zero). With extended = true the
     * constant-absolute-time extension is enabled, which markedly
     * improves the fit on memory- and FP-heavy workloads (see
     * EXPERIMENTS.md).
     */
    std::vector<double> theoryCurve(double m, bool gated,
                                    double *r2 = nullptr,
                                    bool extended = false) const;

    /** Latch counts per depth (power model). */
    std::vector<double> latchCounts() const;
};

/**
 * The one assembly of a workload's @p runs (config order) into a
 * SweepResult, for runGrid and runConfigs callers: leakage is
 * calibrated and theory parameters extracted at
 * runAt(options.reference_depth). Every run must be live: a hole
 * (cycles == 0) aborts.
 */
SweepResult assembleSweep(const WorkloadSpec &spec,
                          const SweepOptions &options,
                          std::vector<SimResult> runs);

/**
 * Run the full sweep for one workload through a default-configured
 * SweepEngine (parallel over depths, on-disk result cache honoring
 * $PIPEDEPTH_CACHE_DIR — see docs/SWEEP_ENGINE.md). Empty when a cell
 * is a hole; running it again computes the hole.
 */
std::optional<SweepResult> runDepthSweep(const WorkloadSpec &spec,
                                         const SweepOptions &options = {});

/**
 * Measured overall latch-growth exponent (Fig. 3): power-law fit of
 * latchCounts() against depth.
 */
double measuredLatchExponent(const SweepResult &sweep);

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_DEPTH_SWEEP_HH
