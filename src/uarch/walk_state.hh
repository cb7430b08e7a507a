/**
 * @file
 * Timing-walk state primitives and the walk's internal entry point.
 *
 * src/uarch has one timing walk: a kernel templated on its lane count
 * D and its lane-group width W (multi_depth_walk.cc). A *lane group*
 * is W lanes advanced together: each per-lane value is a `Lanes<W>`,
 * a W-wide GCC vector of int64 cycle stamps (a plain Cycle at W = 1),
 * and each lane-dependent branch is a select. simulate() runs the
 * walk with one lane and simulateMultiDepth() with one lane per
 * configuration. The rules it shares with the differential oracle
 * (tests/uarch/reference_walk.cc, the scalar walk it replaced), which
 * runs them at W = 1, live here, so the activity and attribution
 * rules that the byte-identity contract depends on have one
 * definition, written over lane groups.
 *
 * Everything in this header is an internal detail of src/uarch; it is
 * not part of the library surface (simulator.hh / multi_depth_walk.hh
 * are).
 */

#ifndef PIPEDEPTH_UARCH_WALK_STATE_HH
#define PIPEDEPTH_UARCH_WALK_STATE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <type_traits>

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

namespace detail
{
template <std::size_t W>
struct LaneGroup
{
    typedef Cycle type __attribute__((vector_size(sizeof(Cycle) * W)));
};
template <>
struct LaneGroup<1>
{
    using type = Cycle;
};
} // namespace detail

/**
 * One int64 value per lane of a W-lane group: a GCC vector for W > 1,
 * a Cycle for W = 1. A mask is a Lanes value whose lanes are -1
 * (true) or 0 (false), at every width.
 *
 * A vector wider than 16 bytes is aligned to 16 in code built for the
 * baseline ISA, so lane-group storage lives in alignas(64) structs,
 * never loose in a container (multi_depth_walk.cc).
 */
template <std::size_t W>
using Lanes = typename detail::LaneGroup<W>::type;

/** @p x in every lane. */
template <typename L>
[[gnu::always_inline]] inline L
splat(Cycle x)
{
    if constexpr (std::is_same_v<L, Cycle>)
        return x;
    else
        return L{} + x;
}

/** Lane-wise a > b, as a mask. */
template <typename L>
[[gnu::always_inline]] inline L
greater(L a, L b)
{
    if constexpr (std::is_same_v<L, Cycle>)
        return -static_cast<Cycle>(a > b);
    else
        return a > b;
}

/** Lane-wise m ? a : b for a mask @p m. */
template <typename L>
[[gnu::always_inline]] inline L
select(L m, L a, L b)
{
    return m ? a : b;
}

/** Lane-wise max. */
template <typename L>
[[gnu::always_inline]] inline L
laneMax(L a, L b)
{
    if constexpr (std::is_same_v<L, Cycle>)
        return std::max(a, b);
    else
        return a > b ? a : b;
}

/**
 * Width enforcement for *out-of-order* issue: finds the earliest
 * cycle at or after a candidate with a free issue port. Unlike a
 * width-limit ring this accepts non-monotonic candidates; bookkeeping
 * is a map of per-cycle issue counts, pruned behind a low-water mark.
 * It stays one object per lane at every lane-group width.
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
 * Accumulates the union of activity intervals of one unit, for each
 * lane of a group (L = Lanes<W>). Exact for non-decreasing interval
 * starts (true for every pipeline unit here except Exec Q entries,
 * where the approximation slightly undercounts overlapped residency).
 */
template <typename L>
struct Activity
{
    L last_end{};
    L active{};
    L occupancy{};
    L ops{};

    /**
     * Add [start, end) in every lane; an empty interval (end <= start)
     * changes nothing. Branch-free: with end > start, if end <= s then
     * s == last_end, so the unconditional max() leaves last_end
     * unchanged; with end <= start, end - s <= 0 adds nothing.
     */
    [[gnu::always_inline]] void
    add(L start, L end)
    {
        const L live = greater(end, start);
        ops -= live;
        occupancy += live & (end - start);
        const L s = laneMax(start, last_end);
        active += laneMax(end - s, splat<L>(0));
        last_end = select(live, laneMax(last_end, end), last_end);
    }

    /**
     * add(start, start + 1) without its ops and occupancy counts: for
     * a unit-length interval each is one per call, so the caller
     * counts calls once for every lane instead.
     */
    [[gnu::always_inline]] void
    tick(L start)
    {
        active -= ~greater(last_end, start);
        last_end = laneMax(last_end, start + 1);
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
 * all — it must not invent an integer hazard. The producer of a
 * register is the last instruction in program order that wrote it,
 * at every depth, so this is one value per register for all lanes.
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

/** @p bucket in every lane, as the walk holds a cause. */
template <typename L>
[[gnu::always_inline]] inline L
causeLanes(StallBucket bucket)
{
    return splat<L>(static_cast<Cycle>(bucket));
}

/**
 * What an exec-path instruction's retire bubble is charged to: the
 * binding issue constraint among its arrival (@p path_cause, the last
 * constraint met on the way), its operands (@p dep_cause, the binding
 * operand's depCause) and a busy unpipelined unit. Ties prefer the
 * non-hazard explanation.
 */
template <typename L>
[[gnu::always_inline]] inline L
issueCause(L arrival, L ready, L busy, L path_cause, L dep_cause)
{
    const L arrival_binds = ~greater(laneMax(ready, busy), arrival);
    const L operand_binds = ~greater(busy, ready);
    return select(arrival_binds, path_cause,
                  select(operand_binds, dep_cause,
                         causeLanes<L>(StallBucket::UnitBusy)));
}

/**
 * The widest lane group this CPU runs the walk at: 8 where it has
 * AVX-512F, 4 where it has AVX2 (x86-64 builds), else 1. Decided once
 * per process.
 */
std::size_t nativeLaneWidth();

/**
 * The timing walk: @p replay under every configuration of
 * @p configs, result k into results[k], at the native lane width.
 * One pass over the replay per compiled lane count; a count with no
 * compiled kernel splits greedily, largest part first. The caller has
 * checked the entry points' preconditions (non-empty replay, fusable
 * configurations, matching annotations) and sized @p results like
 * @p configs.
 */
void timingWalk(const ReplayBuffer &replay,
                const ReplayAnnotations &annotations,
                std::span<const PipelineConfig> configs,
                std::span<SimResult> results);

/**
 * timingWalk() with lane groups at most @p lane_width wide: 1, 4 or
 * 8, no wider than nativeLaneWidth(). Each pass takes the widest of
 * those that tiles its lane count (8 for 8 and 24 lanes, 4 for 4;
 * 1 and 2 lanes always run at width 1). Every width gives the same
 * bytes; the differential oracle and the perf smoke test reach each
 * width here.
 */
void timingWalk(const ReplayBuffer &replay,
                const ReplayAnnotations &annotations,
                std::span<const PipelineConfig> configs,
                std::span<SimResult> results, std::size_t lane_width);

} // namespace walk
} // namespace pipedepth

#endif // PIPEDEPTH_UARCH_WALK_STATE_HH
