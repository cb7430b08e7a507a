/**
 * @file
 * Timing-walk state primitives and the walk's internal entry point.
 *
 * src/uarch has one timing walk: a kernel templated on its lane
 * count, compiled for a small fixed set of counts
 * (multi_depth_walk.cc). simulate() runs it with one lane and
 * simulateMultiDepth() with one lane per configuration. The
 * primitives it shares with the differential oracle
 * (tests/uarch/reference_walk.cc, the scalar walk it replaced) live
 * here, so the attribution and activity rules that the byte-identity
 * contract depends on have one definition.
 *
 * Everything in this header is an internal detail of src/uarch; it is
 * not part of the library surface (simulator.hh / multi_depth_walk.hh
 * are).
 */

#ifndef PIPEDEPTH_UARCH_WALK_STATE_HH
#define PIPEDEPTH_UARCH_WALK_STATE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>

#include "common/logging.hh"
#include "ledger/stall_ledger.hh"
#include "trace/replay_buffer.hh"
#include "uarch/pipeline_config.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/sim_result.hh"

namespace pipedepth
{
namespace walk
{

using Cycle = std::int64_t;

/**
 * Width enforcement for *out-of-order* issue: finds the earliest
 * cycle at or after a candidate with a free issue port. Unlike a
 * width-limit ring this accepts non-monotonic candidates; bookkeeping
 * is a map of per-cycle issue counts, pruned behind a low-water mark.
 */
class IssuePorts
{
  public:
    explicit IssuePorts(int width) : width_(width)
    {
        PP_ASSERT(width >= 1, "width must be positive");
    }

    Cycle
    grant(Cycle candidate)
    {
        Cycle t = std::max<Cycle>(candidate, 0);
        auto it = counts_.find(t);
        while (it != counts_.end() && it->second >= width_) {
            ++t;
            it = counts_.find(t);
        }
        ++counts_[t];
        return t;
    }

    /** Drop bookkeeping for cycles before @p cycle. */
    void
    prune(Cycle cycle)
    {
        counts_.erase(counts_.begin(), counts_.lower_bound(cycle));
    }

  private:
    int width_;
    std::map<Cycle, int> counts_;
};

/**
 * Accumulates the union of activity intervals of one unit. Exact for
 * non-decreasing interval starts (true for every pipeline unit here
 * except Exec Q entries, where the approximation slightly undercounts
 * overlapped residency).
 */
struct Activity
{
    Cycle last_end = 0;
    std::uint64_t active = 0;
    std::uint64_t occupancy = 0;
    std::uint64_t ops = 0;

    void
    add(Cycle start, Cycle end)
    {
        if (end <= start)
            return;
        ++ops;
        occupancy += static_cast<std::uint64_t>(end - start);
        // Branch-free union step (this is the hottest statement of
        // the walk; `end > s` flips unpredictably). With
        // end > start: if end <= s then s == last_end, so the
        // unconditional max() leaves last_end unchanged — exactly the
        // guarded update, minus the mispredicts.
        const Cycle s = std::max(start, last_end);
        active += static_cast<std::uint64_t>(std::max<Cycle>(end - s, 0));
        last_end = std::max(last_end, end);
    }

    /**
     * add(start, start + 1) without its ops and occupancy counts: for
     * a unit-length interval each is one per call, so the caller
     * counts calls once for every lane instead.
     */
    void
    tick(Cycle start)
    {
        active += start >= last_end ? 1 : 0;
        last_end = std::max(last_end, start + 1);
    }
};

/** What kind of producer last wrote a register (for attribution). */
enum class ProducerKind : std::uint8_t
{
    None,
    Load,
    Fp,
    Int,
};

/**
 * Classify a wait on a register by its producer; a load that missed
 * the D-cache is a constant-time memory stall, not a depth-scaled
 * interlock. A wait on a never-written register is no interlock at
 * all — it must not invent an integer hazard.
 */
inline StallBucket
depCause(ProducerKind kind, bool missed)
{
    switch (kind) {
      case ProducerKind::Load:
        return missed ? StallBucket::DCacheMiss : StallBucket::DepLoad;
      case ProducerKind::Fp:
        return StallBucket::DepFp;
      case ProducerKind::Int:
        return StallBucket::DepInt;
      case ProducerKind::None:
        break;
    }
    return StallBucket::Other;
}

/**
 * The timing walk: @p replay under every configuration of
 * @p configs, result k into results[k]. One pass over the replay per
 * compiled lane group; a count with no compiled kernel splits
 * greedily, largest group first. The caller has checked the entry
 * points' preconditions (non-empty replay, fusable configurations,
 * matching annotations) and sized @p results like @p configs.
 */
void timingWalk(const ReplayBuffer &replay,
                const ReplayAnnotations &annotations,
                std::span<const PipelineConfig> configs,
                std::span<SimResult> results);

} // namespace walk
} // namespace pipedepth

#endif // PIPEDEPTH_UARCH_WALK_STATE_HH
