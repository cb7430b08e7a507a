/**
 * @file
 * Activity-based power accounting over simulation results.
 *
 * Implements the paper's simulation power methodology (Sec. 3):
 * "We monitor the usage of each microarchitectural unit of the
 * processor every cycle, and use this information to calculate the
 * related power. Each unit is assigned a power factor, and we
 * calculate power for both a complete clock gating model and a
 * non-clock gating model."
 *
 *  - Each unit has a base latch count per stage; a unit pipelined to
 *    depth d holds base * d^beta latches (the paper's per-unit latch
 *    scale factor p^beta applied to "the pipeline depth of the actual
 *    unit, not the overall pipeline depth").
 *  - Merged units (contracted configurations) share cycles and "the
 *    intervening latches can be eliminated. Therefore, the power
 *    assigned is the greater of the power requirement for each unit."
 *    The groups are read off zero unit depths, which the allocation
 *    table's contraction rows set (PipelineConfig::mergeGroups); one
 *    function gives a group's requirement and the unit that carries
 *    it to both the latch count and power.
 *  - Clock-gated dynamic energy charges a unit only on cycles it did
 *    work; the non-gated model charges every unit every cycle.
 *  - Leakage burns on all latches at all times.
 *
 * Because only some units deepen with p (queues, completion and
 * retirement do not), the *overall* latch count grows slower than any
 * single unit's d^beta — this is exactly the paper's Fig. 3, where
 * per-unit beta = 1.3 yields overall growth ~ p^1.1.
 */

#ifndef PIPEDEPTH_POWER_ACTIVITY_POWER_HH
#define PIPEDEPTH_POWER_ACTIVITY_POWER_HH

#include <array>

#include "uarch/sim_result.hh"

namespace pipedepth
{

/** Per-unit power/latch factors. */
struct UnitPowerFactors
{
    /** Base latch count per pipeline stage of each unit. */
    std::array<double, kNumUnits> base_latches{};
    /** Per-unit latch growth exponent (the paper's beta = 1.3). */
    double beta_unit = 1.3;

    /** The factor set used throughout the reproduction. */
    static UnitPowerFactors defaults();
};

/** Power computed from one simulation run. */
struct SimPower
{
    double latch_count = 0.0;     //!< total effective latches
    double dynamic_gated = 0.0;   //!< W, fine-grained clock gating
    double dynamic_ungated = 0.0; //!< W, all units switch every cycle
    double leakage = 0.0;         //!< W

    double
    total(bool gated) const
    {
        return (gated ? dynamic_gated : dynamic_ungated) + leakage;
    }

    double
    leakageFraction(bool gated) const
    {
        return leakage / total(gated);
    }
};

/**
 * Computes power and power/performance metrics from SimResults under
 * fixed per-latch energies.
 */
class ActivityPowerModel
{
  public:
    /** Default: the standard factor set, p_d = 1, no leakage. */
    ActivityPowerModel()
        : ActivityPowerModel(UnitPowerFactors::defaults(), 1.0, 0.0)
    {
    }

    /**
     * @param factors per-unit latch factors
     * @param p_d     dynamic energy per latch per active cycle
     *                (W * FO4-time)
     * @param p_l     leakage power per latch (W)
     */
    ActivityPowerModel(const UnitPowerFactors &factors, double p_d,
                       double p_l);

    /** Effective latch count of a configuration (merge-aware). */
    double latchCount(const PipelineConfig &config) const;

    /** Power of one simulated run. */
    SimPower power(const SimResult &sim) const;

    /** BIPS^m/W for one run (consistent arbitrary units). */
    double metric(const SimResult &sim, double m, bool gated) const;

    /**
     * Pick p_l so leakage is @p fraction of gated total power for the
     * reference run @p sim (the paper assumes 15%). Returns a model
     * with the new p_l and the same p_d/factors.
     */
    ActivityPowerModel withLeakageFraction(const SimResult &sim,
                                           double fraction) const;

    double pd() const { return p_d_; }
    double pl() const { return p_l_; }
    const UnitPowerFactors &factors() const { return factors_; }

  private:
    /**
     * Effective latches of each unit after merge-group max-combining;
     * entries of merged-away units are zeroed and their group host
     * carries the max.
     */
    std::array<double, kNumUnits>
    effectiveLatches(const PipelineConfig &config) const;

    UnitPowerFactors factors_;
    double p_d_;
    double p_l_;
};

} // namespace pipedepth

#endif // PIPEDEPTH_POWER_ACTIVITY_POWER_HH
