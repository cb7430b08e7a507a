#include "uarch/simulator.hh"

#include "common/logging.hh"
#include "uarch/walk_state.hh"

namespace pipedepth
{

SimResult
simulate(const ReplayBuffer &replay, const ReplayAnnotations &annotations,
         const PipelineConfig &config)
{
    config.validate();
    if (replay.empty())
        PP_FATAL("cannot simulate an empty trace");
    annotations.validateFor(replay);
    PP_ASSERT(annotations.matches(config, replay.size()),
              "replay annotations do not match this configuration");
    SimResult res;
    walk::timingWalk(replay, annotations, {&config, 1}, {&res, 1});
    return res;
}

SimResult
simulate(const ReplayBuffer &replay, const PipelineConfig &config)
{
    return simulate(replay, annotateReplay(replay, config), config);
}

SimResult
simulate(const Trace &trace, const PipelineConfig &config)
{
    return simulate(prepareReplay(trace), config);
}

SimResult
simulateAtDepth(const Trace &trace, int depth, bool in_order)
{
    return simulate(trace, PipelineConfig::forDepth(depth, in_order));
}

} // namespace pipedepth
