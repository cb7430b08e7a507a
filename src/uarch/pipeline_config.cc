#include "uarch/pipeline_config.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace pipedepth
{

std::string
unitName(Unit unit)
{
    switch (unit) {
      case Unit::Fetch:
        return "fetch";
      case Unit::Decode:
        return "decode";
      case Unit::Rename:
        return "rename";
      case Unit::AgenQ:
        return "agenq";
      case Unit::Agen:
        return "agen";
      case Unit::DCache:
        return "dcache";
      case Unit::ExecQ:
        return "execq";
      case Unit::Fxu:
        return "fxu";
      case Unit::Fpu:
        return "fpu";
      case Unit::Complete:
        return "complete";
      case Unit::Retire:
        return "retire";
      case Unit::NumUnits:
        break;
    }
    PP_PANIC("bad unit");
}

namespace
{

/**
 * A policy's report name and insertion cycle: the k-th stage past 6
 * (from 0) goes to unit cycle[k % length].
 */
struct PolicyRow
{
    const char *name;
    std::array<Unit, 3> cycle;
    std::size_t length;
};

/**
 * One row per ExpansionPolicy, in enum order. Uniform's cycle keeps
 * Decode, DCache and Fxu within one stage of each other at every p.
 */
constexpr std::array<PolicyRow, 4> kPolicies{{
    {"uniform", {Unit::Decode, Unit::DCache, Unit::Fxu}, 3},
    {"decode-heavy", {Unit::Decode}, 1},
    {"cache-heavy", {Unit::DCache}, 1},
    {"exec-heavy", {Unit::Fxu}, 1},
}};

/** The units an allocation sets, in kAllocation's column order. */
constexpr std::array<Unit, 6> kAllocUnits{
    Unit::Decode, Unit::AgenQ, Unit::Agen,
    Unit::DCache, Unit::ExecQ, Unit::Fxu};

/**
 * Unit depths at 2..6 allocated stages. Contraction first folds the
 * queues into zero-cycle bypasses, then puts distinct units on one
 * cycle; a zero depth is the only record of which units share a
 * cycle (PipelineConfig::mergeGroups).
 */
constexpr std::array<std::array<int, 6>, 5> kAllocation{{
    // Decode, AgenQ, Agen, DCache, ExecQ, Fxu
    {1, 0, 0, 0, 0, 1}, // 2: decode+agen, then cache+execute
    {1, 0, 0, 1, 0, 1}, // 3: decode and agen share a cycle
    {1, 0, 1, 1, 0, 1}, // 4: both queues fold away
    {1, 1, 1, 1, 0, 1}, // 5: ExecQ folds into the cache cycle
    {1, 1, 1, 1, 1, 1}, // 6: the unexpanded Fig. 2 pipe
}};

} // namespace

std::string
toString(ExpansionPolicy policy)
{
    return kPolicies[static_cast<std::size_t>(policy)].name;
}

double
PipelineConfig::cycleTime() const
{
    return t_o + t_p / depth;
}

int
PipelineConfig::l2PenaltyCycles() const
{
    return std::max(1, static_cast<int>(
                           std::ceil(l2_latency_fo4 / cycleTime())));
}

int
PipelineConfig::missPenaltyCycles() const
{
    return std::max(1, static_cast<int>(
                           std::ceil(mem_latency_fo4 / cycleTime())));
}

int
PipelineConfig::forwardLatency(int exec_depth) const
{
    return std::max(1, static_cast<int>(std::lround(
                           fwd_frac * static_cast<double>(exec_depth))));
}

int
PipelineConfig::takenBranchBubble() const
{
    return 1;
}

int
PipelineConfig::rxPathDepth() const
{
    auto d = [this](Unit u) {
        return unit_depth[static_cast<std::size_t>(u)];
    };
    return d(Unit::Decode) + d(Unit::Rename) + d(Unit::AgenQ) +
           d(Unit::Agen) + d(Unit::DCache) + d(Unit::ExecQ) + d(Unit::Fxu);
}

void
PipelineConfig::validate() const
{
    if (depth < 2 || depth > 30)
        PP_FATAL("pipeline depth must be in [2, 30] (got ", depth, ")");
    if (width < 1 || width > 8)
        PP_FATAL("width must be in [1, 8] (got ", width, ")");
    if (agen_width < 1 || agen_width > width)
        PP_FATAL("agen_width must be in [1, width]");
    if (rxPathDepth() != depth)
        PP_FATAL("unit depths along the RX path sum to ", rxPathDepth(),
                 " but depth is ", depth);
    if (fetch_buffer < width || agen_queue < 1 || exec_queue < 1)
        PP_FATAL("queue capacities too small");
    if (max_inflight < 2 * width)
        PP_FATAL("max_inflight too small");
    if (t_p <= 0.0 || t_o <= 0.0 || mem_latency_fo4 < 0.0 ||
        l2_latency_fo4 < 0.0) {
        PP_FATAL("bad technology parameters");
    }
    if (fwd_frac <= 0.0 || fwd_frac > 1.0)
        PP_FATAL("fwd_frac must be in (0, 1]");
    icache.validate();
    dcache.validate();
    l2cache.validate();
}

std::vector<std::vector<Unit>>
PipelineConfig::mergeGroups() const
{
    std::vector<std::vector<Unit>> groups;
    auto ride = [&](Unit host, std::initializer_list<Unit> riders) {
        std::vector<Unit> group{host};
        for (Unit u : riders) {
            if (unit_depth[static_cast<std::size_t>(u)] == 0)
                group.push_back(u);
        }
        if (group.size() > 1)
            groups.push_back(std::move(group));
    };
    ride(Unit::Decode, {Unit::AgenQ, Unit::Agen});
    if (unit_depth[static_cast<std::size_t>(Unit::DCache)] == 0)
        ride(Unit::Fxu, {Unit::DCache, Unit::ExecQ});
    else
        ride(Unit::DCache, {Unit::ExecQ});
    return groups;
}

PipelineConfig
PipelineConfig::forDepth(int p, bool in_order, ExpansionPolicy policy)
{
    if (p < 2 || p > 30)
        PP_FATAL("supported pipeline depths are 2..30 (got ", p, ")");

    PipelineConfig cfg;
    cfg.depth = p;
    cfg.in_order = in_order;

    // Out-of-order configurations spend one of the p stages on
    // register rename, so the remaining allocation works with p - 1.
    const int alloc = in_order ? p : p - 1;
    if (!in_order && alloc < 2)
        PP_FATAL("out-of-order configurations need depth >= 3");

    auto depth = [&cfg](Unit u) -> int & {
        return cfg.unit_depth[static_cast<std::size_t>(u)];
    };
    depth(Unit::Fetch) = 1;
    depth(Unit::Complete) = 1;
    depth(Unit::Retire) = 1;
    // Rename overlaps decode in the in-order model ("for an in-order
    // model the register rename stage is skipped").
    depth(Unit::Rename) = in_order ? 0 : 1;

    const auto &row =
        kAllocation[static_cast<std::size_t>(std::min(alloc, 6) - 2)];
    for (std::size_t i = 0; i < kAllocUnits.size(); ++i)
        depth(kAllocUnits[i]) = row[i];
    const PolicyRow &expand = kPolicies[static_cast<std::size_t>(policy)];
    for (int k = 0; k < alloc - 6; ++k)
        ++depth(expand.cycle[static_cast<std::size_t>(k) % expand.length]);

    cfg.validate();
    return cfg;
}

} // namespace pipedepth
