/**
 * @file
 * Flattened trace replay buffer: the simulator's hot-path input.
 *
 * A Trace stores full TraceRecords (including branch targets the
 * timing model never reads) and leaves the per-op static properties
 * behind an opTraits() table lookup. The replay buffer flattens the
 * dynamic stream once, up front, into a contiguous array of 24-byte
 * ReplayOps with the traits pre-resolved into a flag byte, so the
 * per-instruction simulation loop touches exactly one small record
 * per instruction and re-derives nothing.
 *
 * A buffer comes from one of two places, both through the one
 * flatten rule below (ReplayFlattener): a catalog workload is
 * generated straight into its buffer (generateReplay, so the engine
 * never holds its TraceRecords), and a tape's Trace is flattened by
 * prepareReplay. The SweepEngine builds each workload's buffer at most
 * once per grid and replays it at every depth (a 24-depth sweep reads
 * the same buffer 24 times).
 *
 * The flattening is purely representational — every field is copied
 * or derived 1:1 from the record — so simulating a ReplayBuffer is
 * byte-identical to simulating the Trace it came from
 * (tests/sweep/test_engine_determinism.cc pins this via the golden
 * result hashes).
 */

#ifndef PIPEDEPTH_TRACE_REPLAY_BUFFER_HH
#define PIPEDEPTH_TRACE_REPLAY_BUFFER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace pipedepth
{

/** Pre-resolved OpTraits flags of one ReplayOp. */
enum ReplayFlags : std::uint8_t
{
    kReplayMem = 1u << 0,        //!< RX format (agen + cache access)
    kReplayLoad = 1u << 1,       //!< reads memory (Load, IntAluMem)
    kReplayStore = 1u << 2,      //!< writes memory
    kReplayBranch = 1u << 3,     //!< either branch class
    kReplayFp = 1u << 4,         //!< floating point
    kReplayUnpipelined = 1u << 5,//!< occupies its unit for the full latency
    kReplayTaken = 1u << 6,      //!< dynamic branch outcome
};

/**
 * One dynamic instruction, flattened for replay. 24 bytes: three per
 * 64-byte cache line, vs 40 for a padded TraceRecord.
 */
struct ReplayOp
{
    std::uint64_t pc;
    std::uint64_t mem_addr;
    std::uint8_t dst;
    std::uint8_t src1;
    std::uint8_t src2;
    std::uint8_t src3;
    std::uint8_t op;           //!< OpClass, for the rare exact dispatch
    std::uint8_t flags;        //!< ReplayFlags
    std::uint8_t exec_latency; //!< base execution latency in cycles
    std::uint8_t pad_ = 0;

    bool is(ReplayFlags f) const { return (flags & f) != 0; }
    OpClass opClass() const { return static_cast<OpClass>(op); }
};

static_assert(sizeof(ReplayOp) == 24, "ReplayOp must stay compact");

/** A prepared, contiguous replay image of one trace. */
struct ReplayBuffer
{
    std::string name;           //!< workload name (from the trace)
    std::vector<ReplayOp> ops;  //!< the dynamic stream, in order

    std::size_t size() const { return ops.size(); }
    bool empty() const { return ops.empty(); }
};

/**
 * The one rule that turns a TraceRecord into a ReplayOp, shared by
 * prepareReplay and the generator's replay sink. Each op class's flags
 * and latency are resolved once, when the flattener is built, so
 * flattening a record copies its fields and reads one table entry;
 * it is inline because the generator calls it once per record.
 */
class ReplayFlattener
{
  public:
    ReplayFlattener();

    ReplayOp
    operator()(const TraceRecord &r) const
    {
        const auto cls = static_cast<std::size_t>(r.op);
        return ReplayOp{
            .pc = r.pc,
            .mem_addr = r.mem_addr,
            .dst = r.dst,
            .src1 = r.src1,
            .src2 = r.src2,
            .src3 = r.src3,
            .op = static_cast<std::uint8_t>(r.op),
            .flags = static_cast<std::uint8_t>(
                class_flags_[cls] | (r.taken ? kReplayTaken : 0)),
            .exec_latency = class_latency_[cls],
        };
    }

  private:
    std::array<std::uint8_t, kNumOpClasses> class_flags_{};
    std::array<std::uint8_t, kNumOpClasses> class_latency_{};
};

/** Flatten @p trace into a replay buffer (one linear pass). */
ReplayBuffer prepareReplay(const Trace &trace);

} // namespace pipedepth

#endif // PIPEDEPTH_TRACE_REPLAY_BUFFER_HH
