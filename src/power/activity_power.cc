#include "power/activity_power.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace pipedepth
{

UnitPowerFactors
UnitPowerFactors::defaults()
{
    UnitPowerFactors f;
    auto set = [&f](Unit u, double latches) {
        f.base_latches[static_cast<std::size_t>(u)] = latches;
    };
    // Relative per-stage latch budgets of the units. The absolute
    // scale is arbitrary (metrics are reported in consistent units);
    // the ratios follow the usual split: caches and execution
    // datapaths dominate, queues and retirement bookkeeping are
    // small.
    set(Unit::Fetch, 1000.0);
    set(Unit::Decode, 2000.0);
    set(Unit::Rename, 1400.0);
    set(Unit::AgenQ, 450.0);
    set(Unit::Agen, 900.0);
    set(Unit::DCache, 2600.0);
    set(Unit::ExecQ, 650.0);
    set(Unit::Fxu, 2300.0);
    set(Unit::Fpu, 2400.0);
    set(Unit::Complete, 800.0);
    set(Unit::Retire, 500.0);
    return f;
}

ActivityPowerModel::ActivityPowerModel(const UnitPowerFactors &factors,
                                       double p_d, double p_l)
    : factors_(factors), p_d_(p_d), p_l_(p_l)
{
    if (p_d < 0.0 || p_l < 0.0)
        PP_FATAL("per-latch powers must be non-negative");
    if (factors.beta_unit <= 0.0)
        PP_FATAL("beta_unit must be positive");
}

namespace
{

/** Group decomposition: merge groups first, then singleton units. */
std::vector<std::vector<Unit>>
groupsOf(const PipelineConfig &config)
{
    std::vector<std::vector<Unit>> groups = config.mergeGroups();
    std::array<bool, kNumUnits> covered{};
    for (const auto &g : groups) {
        for (Unit u : g)
            covered[static_cast<std::size_t>(u)] = true;
    }
    for (std::size_t u = 0; u < kNumUnits; ++u) {
        if (!covered[u])
            groups.push_back({static_cast<Unit>(u)});
    }
    return groups;
}

/**
 * A group's latch requirement and the member that carries it. The
 * members share the group's cycles (its max member depth) and "the
 * power assigned is the greater of the power requirement for each
 * unit", carried by the first member that needs it. A group of absent
 * hardware (rename when in order) needs no latches.
 */
std::pair<double, Unit>
groupLatches(const UnitPowerFactors &factors, const PipelineConfig &config,
             const std::vector<Unit> &group)
{
    int depth = 0;
    for (Unit u : group) {
        const std::size_t i = static_cast<std::size_t>(u);
        depth = std::max(depth, config.unit_depth[i]);
    }
    const double scale =
        std::pow(static_cast<double>(depth), factors.beta_unit);
    std::pair<double, Unit> most{0.0, group.front()};
    for (Unit u : group) {
        const double req =
            factors.base_latches[static_cast<std::size_t>(u)] * scale;
        if (req > most.first)
            most = {req, u};
    }
    return most;
}

} // namespace

std::array<double, kNumUnits>
ActivityPowerModel::effectiveLatches(const PipelineConfig &config) const
{
    std::array<double, kNumUnits> latches{};
    for (const auto &group : groupsOf(config)) {
        const auto [req, host] = groupLatches(factors_, config, group);
        latches[static_cast<std::size_t>(host)] = req;
    }
    return latches;
}

double
ActivityPowerModel::latchCount(const PipelineConfig &config) const
{
    const auto latches = effectiveLatches(config);
    double total = 0.0;
    for (double l : latches)
        total += l;
    return total;
}

SimPower
ActivityPowerModel::power(const SimResult &sim) const
{
    PP_ASSERT(sim.cycles > 0, "empty simulation result");
    const auto &config = sim.config;
    const double time_fo4 = sim.timeFo4();

    SimPower out;
    double gated_switches = 0.0;
    double ungated_switches = 0.0;

    for (const auto &group : groupsOf(config)) {
        const double req = groupLatches(factors_, config, group).first;
        std::uint64_t active = 0;
        for (Unit u : group) {
            const std::size_t i = static_cast<std::size_t>(u);
            active = std::max(active, sim.units[i].active_cycles);
        }
        out.latch_count += req;
        gated_switches += req * static_cast<double>(active);
        ungated_switches += req * static_cast<double>(sim.cycles);
    }

    out.dynamic_gated = p_d_ * gated_switches / time_fo4;
    out.dynamic_ungated = p_d_ * ungated_switches / time_fo4;
    out.leakage = p_l_ * out.latch_count;
    return out;
}

double
ActivityPowerModel::metric(const SimResult &sim, double m,
                           bool gated) const
{
    PP_ASSERT(m > 0.0, "metric exponent must be positive");
    const SimPower p = power(sim);
    const double watts = p.total(gated);
    PP_ASSERT(watts > 0.0, "zero power");
    return std::pow(sim.bips(), m) / watts;
}

ActivityPowerModel
ActivityPowerModel::withLeakageFraction(const SimResult &sim,
                                        double fraction) const
{
    if (fraction < 0.0 || fraction >= 1.0)
        PP_FATAL("leakage fraction must be in [0, 1)");
    ActivityPowerModel probe(factors_, p_d_, 0.0);
    const SimPower base = probe.power(sim);
    PP_ASSERT(base.latch_count > 0.0, "no latches");
    const double p_l = fraction / (1.0 - fraction) * base.dynamic_gated /
                       base.latch_count;
    return ActivityPowerModel(factors_, p_d_, p_l);
}

} // namespace pipedepth
