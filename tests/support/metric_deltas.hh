/**
 * @file
 * MetricDeltas: what the process-wide metrics registry counted since
 * a point in a test. The registry is the one tally of an engine call
 * (sweep.cell.*, cache.*, sweep.call.wall_us, ...), so a test reads
 * a call's counts as the change across the call.
 */

#ifndef PIPEDEPTH_TESTS_SUPPORT_METRIC_DELTAS_HH
#define PIPEDEPTH_TESTS_SUPPORT_METRIC_DELTAS_HH

#include <cstdint>
#include <map>
#include <string>

#include "telemetry/metrics.hh"

namespace pipedepth
{

/** Registry counts at construction; operator[] gives the change. */
class MetricDeltas
{
  public:
    MetricDeltas() : start_(counts()) {}

    /**
     * Change in @p name since construction: a counter's value, or a
     * histogram's sample count. 0 for a name never registered.
     */
    std::uint64_t
    operator[](const std::string &name) const
    {
        const auto now = counts();
        const auto it = now.find(name);
        if (it == now.end())
            return 0;
        const auto was = start_.find(name);
        return it->second - (was == start_.end() ? 0 : was->second);
    }

  private:
    static std::map<std::string, std::uint64_t>
    counts()
    {
        std::map<std::string, std::uint64_t> out;
        for (const MetricSnapshot &m : MetricsRegistry::instance().snapshot())
            out[m.name] = m.count;
        return out;
    }

    std::map<std::string, std::uint64_t> start_;
};

} // namespace pipedepth

#endif // PIPEDEPTH_TESTS_SUPPORT_METRIC_DELTAS_HH
