#include "trace/replay_buffer.hh"

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace pipedepth
{

ReplayFlattener::ReplayFlattener()
{
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
        const OpTraits &t = opTraits(static_cast<OpClass>(c));
        class_flags_[c] = static_cast<std::uint8_t>(
            (t.is_mem ? kReplayMem : 0) | (t.is_load ? kReplayLoad : 0) |
            (t.is_store ? kReplayStore : 0) |
            (t.is_branch ? kReplayBranch : 0) |
            (t.is_fp ? kReplayFp : 0) |
            (t.unpipelined ? kReplayUnpipelined : 0));
        PP_ASSERT(t.exec_latency >= 1 && t.exec_latency <= 255,
                  "exec latency out of ReplayOp range");
        class_latency_[c] = static_cast<std::uint8_t>(t.exec_latency);
    }
}

ReplayBuffer
prepareReplay(const Trace &trace)
{
    TELEM_SPAN(span, "trace.replay.prepare");
    span.tag("workload", trace.name);
    span.tag("ops", static_cast<std::uint64_t>(trace.size()));

    const ReplayFlattener flatten;
    ReplayBuffer buf;
    buf.name = trace.name;
    buf.ops.reserve(trace.size());
    for (const TraceRecord &r : trace.records)
        buf.ops.push_back(flatten(r));
    return buf;
}

} // namespace pipedepth
