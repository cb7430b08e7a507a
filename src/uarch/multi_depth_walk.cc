#include "uarch/multi_depth_walk.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "ledger/stall_ledger.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "uarch/walk_state.hh"

// The wide kernels (width 4 for AVX2, 8 for AVX-512F) are built on
// x86-64; elsewhere every lane count runs at width 1.
#if defined(__x86_64__) && defined(__GNUC__)
#define PIPEDEPTH_WALK_WIDE 1
#else
#define PIPEDEPTH_WALK_WIDE 0
#endif

namespace pipedepth
{

using walk::Activity;
using walk::Cycle;
using walk::IssuePorts;
using walk::Lanes;
using walk::causeLanes;
using walk::greater;
using walk::laneMax;
using walk::select;
using walk::splat;

namespace
{

/** Lane @p k of a lane group. */
template <typename L>
[[gnu::always_inline]] inline Cycle
laneAt(const L &v, std::size_t k)
{
    if constexpr (std::is_same_v<L, Cycle>)
        return v;
    else
        return v[k];
}

/** Set lane @p k of a lane group. */
template <typename L>
[[gnu::always_inline]] inline void
setLane(L &v, std::size_t k, Cycle x)
{
    if constexpr (std::is_same_v<L, Cycle>)
        v = x;
    else
        v[k] = x;
}

/** Set every lane of @p v to @p x. By reference: code built for the
 *  baseline ISA must not pass a lane vector by value. */
template <typename L>
void
fillLanes(L &v, Cycle x)
{
    for (std::size_t k = 0; k < sizeof(L) / sizeof(Cycle); ++k)
        setLane(v, k, x);
}

/**
 * K lane groups side by side: one ring slot, one scoreboard register,
 * one store's data-ready cycles. Aligned for the widest group, so a
 * vector access to any member is aligned wherever the row lives.
 */
template <typename L, std::size_t K>
struct alignas(64) Row
{
    L g[K];
};

/**
 * A ring of lane-group stamps, [slot][group], behind one cursor that
 * every lane shares. Which rings an instruction touches depends only
 * on its replay flags, never on timing, and canFuseConfigs() gives
 * every lane the same ring sizes, so all lanes step through the same
 * slot sequence. The walk reads and writes the current slot in its
 * group loop and advances the cursor once per event, after it. A slot
 * holds K groups: one per lane group, or one per (stage, group) when
 * several stages advance together.
 *
 * As a width limit (at most `size` grants per cycle) a stamp is the
 * lane's grant `size` grants ago; as a buffer capacity it is the exit
 * time of the entry admitted `size` admissions ago. Either way the
 * next event may happen no earlier than one cycle after the stamp.
 */
template <typename L, std::size_t K>
class LaneRing
{
  public:
    explicit LaneRing(int size)
    {
        PP_ASSERT(size >= 1, "ring size must be positive");
        Row<L, K> empty;
        for (L &stamp : empty.g)
            fillLanes(stamp, -1);
        slots_.assign(static_cast<std::size_t>(size), empty);
        current_ = slots_.data();
    }

    // current_ points into slots_.
    LaneRing(const LaneRing &) = delete;
    LaneRing &operator=(const LaneRing &) = delete;

    /** The current slot's stamps. */
    Row<L, K> &
    current()
    {
        return *current_;
    }

    void
    advance()
    {
        if (++current_ == slots_.data() + slots_.size())
            current_ = slots_.data();
    }

  private:
    std::vector<Row<L, K>> slots_;
    Row<L, K> *current_ = nullptr;
};

/** Width limit: the first cycle at or after @p candidate that the
 *  slot's @p stamp allows; the grant becomes the new stamp. */
template <typename L>
[[gnu::always_inline]] inline L
grant(L &stamp, L candidate)
{
    const L t = laneMax(candidate, stamp + 1);
    stamp = t;
    return t;
}

/** Capacity limit: the first cycle at or after @p candidate after the
 *  slot's previous entry left at @p exit. */
template <typename L>
[[gnu::always_inline]] inline L
admit(L exit, L candidate)
{
    return laneMax(candidate, exit + 1);
}

/**
 * Everything one lane group carries from instruction to instruction:
 * the depth-dependent parameters of its lanes' configurations,
 * resolved once so the per-instruction loop reads plain lane values,
 * the stage stamps, the retire-cycle tally and unit activity.
 */
template <typename L>
struct alignas(64) GroupState
{
    // Depth parameters.
    L dD{};
    L dDR{}; //!< dD + dRN: decode through rename
    L dAQ{};
    L dA{};
    L agen_split{}; //!< mask: dA > 0 (else agen merges into decode)
    L dC{};
    L cache_merged{}; //!< mask: dC == 0 (cache access in execute)
    L dEQ{};
    L dE{};
    L l2_penalty{};
    L mem_penalty{};
    L fwd_latency{};
    L taken_bubble{};

    // Stage stamps.
    L fetch_seq{}; //!< earliest fetch for the next instruction
    L decode_seq{};
    L agen_seq{};
    L exec_seq{};
    L complete_seq{};
    /** The last retire cycle; -1 before the first, as the ledger's. */
    L retire_seq{};
    L redirect_time{}; //!< younger fetches blocked until here
    L fpu_busy{};      //!< unpipelined FPU free time
    L div_busy{};      //!< unpipelined integer divider free time

    /** Distinct retire cycles (StallLedger's work cycles). */
    L work_cycles{};

    /** Per unit; Retire's comes from the ledger. */
    Activity<L> activity[kNumUnits]{};

    GroupState() { fillLanes(retire_seq, -1); }

    Activity<L> &
    act(Unit u)
    {
        return activity[static_cast<std::size_t>(u)];
    }
};

/** The bubbles one lane's ledger charges, tallied by the walk. */
struct LaneTally
{
    StallLedger::BucketCounts cycles{};
    StallLedger::BucketCounts events{};
};

/**
 * The state of one walk over D lanes in lane groups W wide. Per-lane
 * values are lane-group arrays indexed by group: rings
 * [slot][group], scoreboard [reg][group], store data-ready
 * [store][group]; the rest of a group's state is its GroupState. What
 * depends on the replay op and its annotations alone — ring cursors,
 * a register's producer, event counters — is held once for every
 * lane.
 */
template <std::size_t D, std::size_t W>
struct alignas(64) Walk
{
    static_assert(D % W == 0, "lane groups must tile the lanes");
    using L = Lanes<W>;
    static constexpr std::size_t G = D / W;

    Walk(const PipelineConfig *configs,
         const ReplayAnnotations &annotations)
        : width(configs[0].width), in_order(configs[0].in_order),
          model_memdep(configs[0].model_memory_dependences),
          inflight_window(static_cast<Cycle>(configs[0].max_inflight)),
          stage_slots(width), agen_slots(configs[0].agen_width),
          exec_slots(width), fetch_buffer(configs[0].fetch_buffer),
          agen_queue(configs[0].agen_queue),
          exec_queue(configs[0].exec_queue),
          inflight(configs[0].max_inflight),
          store_ready(annotations.num_stores, Row<L, G>{}),
          ledgers(D, StallLedger(width))
    {
        for (std::size_t j = 0; j < D; ++j) {
            const PipelineConfig &c = configs[j];
            GroupState<L> &s = groups[j / W];
            const std::size_t k = j % W;
            auto depth = [&c](Unit u) {
                return c.unit_depth[static_cast<std::size_t>(u)];
            };
            const int dE = depth(Unit::Fxu);
            setLane(s.dD, k, depth(Unit::Decode));
            setLane(s.dDR, k, depth(Unit::Decode) + depth(Unit::Rename));
            setLane(s.dAQ, k, depth(Unit::AgenQ));
            setLane(s.dA, k, depth(Unit::Agen));
            setLane(s.agen_split, k, depth(Unit::Agen) > 0 ? -1 : 0);
            setLane(s.dC, k, depth(Unit::DCache));
            setLane(s.cache_merged, k, depth(Unit::DCache) == 0 ? -1 : 0);
            setLane(s.dEQ, k, depth(Unit::ExecQ));
            setLane(s.dE, k, dE);
            setLane(s.l2_penalty, k, c.l2PenaltyCycles());
            setLane(s.mem_penalty, k, c.missPenaltyCycles());
            setLane(s.fwd_latency, k, c.forwardLatency(dE));
            setLane(s.taken_bubble, k, c.takenBranchBubble());
            audited[j] = c.audit_ledger;
            any_audited = any_audited || c.audit_ledger;
        }
        reg_cause.fill(walk::depCause(walk::ProducerKind::None, false));
        // Out-of-order issue ports keep per-cycle counts in a map, so
        // they are one object per lane rather than a ring.
        if (!in_order)
            ooo_ports.assign(D, IssuePorts(width));
    }

    const int width;
    const bool in_order;
    const bool model_memdep;
    const Cycle inflight_window;

    GroupState<L> groups[G];

    /** Register scoreboard, [reg][group]: every register ready at 0. */
    Row<L, G> reg_ready[kNumRegs]{};
    /**
     * What a wait on each register is charged to: depCause() of its
     * last producer, which is the same instruction at every depth.
     * Indexed by the op's raw register byte, kNoReg included.
     */
    std::array<StallBucket, 256> reg_cause{};

    // Fetch, decode, complete and retire each grant one slot per
    // instruction under the same width, so they share one ring:
    // group g's stamp of stage k is slot.g[k * G + g].
    LaneRing<L, 4 * G> stage_slots;
    LaneRing<L, G> agen_slots;
    LaneRing<L, G> exec_slots;
    LaneRing<L, G> fetch_buffer;
    LaneRing<L, G> agen_queue;
    LaneRing<L, G> exec_queue;
    LaneRing<L, G> inflight;

    /** Data-ready cycle of each recorded store, [store][group]. The
     *  store numbering is depth-invariant, so one counter indexes it. */
    std::vector<Row<L, G>> store_ready;
    std::uint32_t store_seq = 0;

    std::vector<IssuePorts> ooo_ports;

    std::array<LaneTally, D> tally{};
    /** Lanes whose configuration audits its ledger commit it too. */
    std::array<bool, D> audited{};
    bool any_audited = false;
    std::vector<StallLedger> ledgers;

    // Depth-invariant event counters: pure functions of the replay op
    // and its annotation byte, accumulated once per instruction and
    // copied into every lane's result at the end.
    std::uint64_t c_branches = 0;
    std::uint64_t c_mispredicts = 0;
    std::uint64_t c_icache_misses = 0;
    std::uint64_t c_dcache_accesses = 0;
    std::uint64_t c_dcache_misses = 0;
    std::uint64_t c_l2_accesses = 0;
    std::uint64_t c_l2_misses = 0;
};

/**
 * The timing walk's pass over @p replay: at every instruction, the
 * pipeline state of each lane group advances, then what the lanes
 * share (ring cursors, register producers, event counters) advances
 * once. The lanes are mutually independent — no value computed for
 * one lane feeds another — so a group's lanes run as one vector and
 * the hardware overlaps the groups' dependency chains. Every
 * lane-dependent choice is a select; every branch is on the op or
 * its annotations, which all lanes share.
 *
 * Inlined into the code that runs each width (walkLaneGroups at
 * width 1, walkPassAvx2, walkPassAvx512), never called on its own:
 * lane vectors must not cross the boundary between code built for
 * different ISAs.
 */
template <std::size_t D, std::size_t W>
[[gnu::always_inline]] inline void
walkPass(Walk<D, W> &w, const ReplayBuffer &replay,
         const ReplayAnnotations &annotations)
{
    using L = Lanes<W>;
    constexpr std::size_t G = D / W;
    const bool in_order = w.in_order;
    const bool model_memdep = w.model_memdep;
    const L zero = splat<L>(0);
    const L one = splat<L>(1);

    // The next forwarded load's entry in annotations.fwd_store.
    const std::uint32_t *fwd_next = annotations.fwd_store.data();
    const std::size_t n_ops = replay.size();
    for (std::size_t i = 0; i < n_ops; ++i) {
        // A copy, not a reference: the group loop's stores could alias
        // the op's byte fields and force a reload of each per group.
        const ReplayOp r = replay.ops[i];
        const std::uint8_t ann = annotations.flags[i];
        // The store a forwarded load reads, the same at every lane.
        const std::uint32_t fwd_seq =
            (ann & kAnnForwarded) ? *fwd_next++ : 0;
        const bool is_mem = r.is(kReplayMem);
        const bool is_store = r.is(kReplayStore);
        const bool is_fp = r.is(kReplayFp);
        const bool dcache_missed = is_mem && (ann & kAnnForwarded) == 0 &&
                                   (ann & kAnnDCacheMiss) != 0;
        // Stores and pure loads complete at the cache; they do not
        // pass the execution pipe (only RX *ALU* ops do).
        const bool at_cache = is_store || r.opClass() == OpClass::Load;
        const L src1_cause = causeLanes<L>(w.reg_cause[r.src1]);
        const L src2_cause = causeLanes<L>(w.reg_cause[r.src2]);
        const L src3_cause = causeLanes<L>(w.reg_cause[r.src3]);

        Row<L, 4 * G> &stage = w.stage_slots.current();
        Row<L, G> &fetch_buffer = w.fetch_buffer.current();
        Row<L, G> &inflight = w.inflight.current();

        for (std::size_t g = 0; g < G; ++g) {
            GroupState<L> &s = w.groups[g];
            // The last binding constraint this instruction met on its
            // way to issue (used when its retire bubble is bound by
            // arrival).
            L path_cause = causeLanes<L>(StallBucket::Other);

            // ---- Fetch ------------------------------------------------
            L f_base = admit(fetch_buffer.g[g], s.fetch_seq);
            f_base = admit(inflight.g[g], f_base);
            const L redirected = greater(s.redirect_time, f_base);
            f_base = select(redirected, s.redirect_time, f_base);
            path_cause = select(redirected,
                                causeLanes<L>(StallBucket::Mispredict),
                                path_cause);
            L f = grant(stage.g[g], f_base);
            if (ann & kAnnICacheMiss) {
                // Penalty beyond the L1 pipe for a miss: L2 hit
                // latency, plus memory on an L2 miss. Both are
                // constant in absolute time and therefore grow in
                // cycles as the pipeline deepens.
                f += s.l2_penalty;
                if (ann & kAnnICacheL2Miss)
                    f += s.mem_penalty;
                path_cause = causeLanes<L>(StallBucket::ICache);
            }
            s.act(Unit::Fetch).tick(f);
            s.fetch_seq = f;

            // ---- Decode (+ Rename when present) -----------------------
            const L d = grant(stage.g[G + g], laneMax(f + 1, s.decode_seq));
            s.decode_seq = d;
            const L de = d + s.dDR;

            // ---- Dispatch with queue backpressure ---------------------
            const L dispatch =
                is_mem ? admit(w.agen_queue.current().g[g], de)
                       : admit(w.exec_queue.current().g[g], de);
            s.act(Unit::Decode).add(d, laneMax(de, dispatch));
            // Empty where the lane has no rename stage.
            s.act(Unit::Rename).add(d + s.dD, de);

            L exec_arrival = zero; //!< when the op reaches the Exec Q exit
            L cache_done = zero;

            if (is_mem) {
                // ---- Agen Q -> Agen -> Cache Access -------------------
                L a_cand = laneMax(dispatch + s.dAQ, s.agen_seq);
                if (r.src3 != kNoReg) {
                    const L base_ready = w.reg_ready[r.src3].g[g];
                    const L waits = greater(base_ready, a_cand);
                    a_cand = select(waits, base_ready, a_cand);
                    path_cause = select(waits, src3_cause, path_cause);
                }
                const L aissue = grant(w.agen_slots.current().g[g], a_cand);
                s.agen_seq = aissue;
                w.agen_queue.current().g[g] = aissue;
                s.act(Unit::AgenQ).add(dispatch, aissue);
                const L agen_done = aissue + s.dA;
                // Where agen merges into decode, its logic shares
                // those cycles.
                s.act(Unit::Agen).add(select(s.agen_split, aissue, d),
                                      select(s.agen_split, agen_done, de));

                // Stores must have their data by the cache access.
                L cache_start = agen_done;
                if (is_store && r.src1 != kNoReg) {
                    const L data_ready = w.reg_ready[r.src1].g[g];
                    const L waits = greater(data_ready, cache_start);
                    cache_start = select(waits, data_ready, cache_start);
                    path_cause = select(waits, src1_cause, path_cause);
                }

                // A load hitting a recent store's dword takes the
                // forwarding path instead of the memory path. The
                // annotations recorded the decision (trace-order
                // state); only the store's depth-dependent data-ready
                // cycle is looked up here.
                if (ann & kAnnForwarded) {
                    const L st = w.store_ready[fwd_seq].g[g];
                    // One cycle after the store data is ready, but
                    // never earlier than the load's own pipe stage.
                    const L pipe_done = cache_start + s.dC;
                    cache_done = laneMax(pipe_done, st + 1);
                    // Only a *binding* wait for the store's data is a
                    // load interlock; forwarding that shortens the
                    // path is not a hazard.
                    path_cause = select(greater(cache_done, pipe_done),
                                        causeLanes<L>(StallBucket::DepLoad),
                                        path_cause);
                } else {
                    cache_done = cache_start + s.dC;
                    if (dcache_missed) {
                        cache_done += s.l2_penalty;
                        if (ann & kAnnDCacheL2Miss)
                            cache_done += s.mem_penalty;
                        // The op reaches issue late by a constant-time
                        // memory stall.
                        path_cause = causeLanes<L>(StallBucket::DCacheMiss);
                    }
                }
                if (model_memdep && is_store) {
                    // Data becomes forwardable once the store reaches
                    // the cache stage with its operand in hand.
                    w.store_ready[w.store_seq].g[g] = cache_start;
                }
                // Empty where the cache access merges into execute.
                s.act(Unit::DCache).add(cache_start, cache_start + s.dC);
                exec_arrival = cache_done + s.dEQ;
            } else {
                exec_arrival = dispatch + s.dEQ;
            }

            // ---- Execute ----------------------------------------------
            L ecomp = zero;
            // What this instruction's retire bubble will be charged
            // to. Memory ops that complete at the cache carry their
            // arrival path's constraint; exec-path ops refine it at
            // issue below.
            L stall_cause = path_cause;
            if (at_cache) {
                // Load data forwards to consumers straight from the
                // cache.
                ecomp = cache_done;
                if (r.opClass() == OpClass::Load && r.dst != kNoReg)
                    w.reg_ready[r.dst].g[g] = cache_done + 1;
            } else {
                // Operand readiness at issue: the later source binds,
                // the first on a tie.
                L ready = zero;
                L dep_cause = causeLanes<L>(
                    walk::depCause(walk::ProducerKind::None, false));
                if (r.src1 != kNoReg) {
                    const L src_ready = w.reg_ready[r.src1].g[g];
                    const L later = greater(src_ready, ready);
                    ready = select(later, src_ready, ready);
                    dep_cause = select(later, src1_cause, dep_cause);
                }
                if (r.src2 != kNoReg) {
                    const L src_ready = w.reg_ready[r.src2].g[g];
                    const L later = greater(src_ready, ready);
                    ready = select(later, src_ready, ready);
                    dep_cause = select(later, src2_cause, dep_cause);
                }

                L busy = zero;
                if (is_fp)
                    busy = s.fpu_busy;
                if (r.opClass() == OpClass::IntDiv)
                    busy = laneMax(busy, s.div_busy);

                L eissue = zero;
                if (in_order) {
                    const L cand =
                        laneMax(laneMax(ready, busy),
                                laneMax(exec_arrival, s.exec_seq));
                    eissue = grant(w.exec_slots.current().g[g], cand);
                    s.exec_seq = eissue;
                } else {
                    // Out-of-order: issue as soon as operands and a
                    // port are available; program order does not gate
                    // issue. The window is still bounded by
                    // max_inflight (the ROB) and completion remains in
                    // order, so the ledger attributes retire bubbles
                    // the same way as in-order mode.
                    const L cand =
                        laneMax(laneMax(ready, busy), exec_arrival);
                    for (std::size_t k = 0; k < W; ++k) {
                        IssuePorts &ports = w.ooo_ports[g * W + k];
                        const Cycle t = ports.grant(laneAt(cand, k));
                        setLane(eissue, k, t);
                        if (i % 4096 == 0) {
                            // Cheap low-water pruning: nothing can
                            // issue before the oldest in-flight
                            // instruction fetched.
                            ports.prune(t - 8 * w.inflight_window);
                        }
                    }
                }

                stall_cause = walk::issueCause(exec_arrival, ready, busy,
                                               path_cause, dep_cause);
                w.exec_queue.current().g[g] = eissue;
                s.act(Unit::ExecQ).add(is_mem ? cache_done : dispatch,
                                       eissue);

                ecomp = eissue + s.dE + (r.exec_latency - 1);
                // Dependents of simple pipelined integer ops see the
                // forwarded result early (see PipelineConfig::fwd_frac);
                // everything else pays the full path.
                const L result_ready =
                    !is_fp && !is_mem && !r.is(kReplayUnpipelined)
                        ? eissue + s.fwd_latency + (r.exec_latency - 1)
                        : ecomp;
                if (is_fp) {
                    s.act(Unit::Fpu).add(eissue, ecomp);
                    if (r.is(kReplayUnpipelined))
                        s.fpu_busy = ecomp;
                } else {
                    s.act(Unit::Fxu).add(eissue, ecomp);
                    if (is_mem) {
                        // Empty unless the cache access merges into
                        // the execute cycle.
                        s.act(Unit::DCache).add(
                            eissue, select(s.cache_merged, ecomp, eissue));
                    }
                    if (r.is(kReplayUnpipelined))
                        s.div_busy = ecomp;
                }
                if (r.dst != kNoReg)
                    w.reg_ready[r.dst].g[g] = result_ready;
            }

            // ---- Branch resolution ------------------------------------
            if (r.is(kReplayBranch)) {
                if (ann & kAnnMispredict) {
                    s.redirect_time = laneMax(s.redirect_time, ecomp + 1);
                } else if (r.is(kReplayTaken)) {
                    // Correctly predicted taken branches still break
                    // the fetch group (one-bubble redirect via the BTB).
                    s.fetch_seq = laneMax(s.fetch_seq, f + s.taken_bubble);
                }
            }

            // ---- Complete and retire (in order) -----------------------
            const L comp = grant(stage.g[2 * G + g],
                                 laneMax(ecomp + 1, s.complete_seq));
            s.complete_seq = comp;
            s.act(Unit::Complete).tick(comp);

            const L ret = grant(stage.g[3 * G + g],
                                laneMax(comp + 1, s.retire_seq));
            // StallLedger::commitFast's arithmetic, for every lane:
            // a retire cycle after the previous one is a work cycle,
            // and the idle cycles between them are a bubble charged
            // to what held this instruction back (the first
            // instruction's to the pipeline fill).
            const L gap = ret - s.retire_seq;
            s.work_cycles -= greater(gap, zero);
            const L bubble = laneMax(gap - one, zero);
            const L charged =
                i == 0 ? causeLanes<L>(StallBucket::Drain) : stall_cause;
            for (std::size_t k = 0; k < W; ++k) {
                LaneTally &t = w.tally[g * W + k];
                const auto b = static_cast<std::size_t>(laneAt(charged, k));
                const Cycle cycles = laneAt(bubble, k);
                t.cycles[b] += static_cast<std::uint64_t>(cycles);
                t.events[b] += cycles > 0 ? 1 : 0;
            }
            if (w.any_audited) {
                // The audited path re-validates the retire-stream
                // preconditions.
                for (std::size_t k = 0; k < W; ++k) {
                    if (w.audited[g * W + k]) {
                        const auto cause = static_cast<StallBucket>(
                            laneAt(stall_cause, k));
                        w.ledgers[g * W + k].commit(laneAt(ret, k), cause);
                    }
                }
            }
            s.retire_seq = ret;

            fetch_buffer.g[g] = d;
            inflight.g[g] = ret;
        }

        // One cursor advance per ring event, shared by all lanes.
        w.stage_slots.advance();
        w.fetch_buffer.advance();
        w.inflight.advance();
        if (is_mem) {
            w.agen_slots.advance();
            w.agen_queue.advance();
        }
        if (!at_cache) {
            w.exec_queue.advance();
            if (in_order)
                w.exec_slots.advance();
        }
        if (model_memdep && is_store)
            ++w.store_seq;

        // The register this op writes now charges its waits to it.
        if (at_cache) {
            if (r.opClass() == OpClass::Load && r.dst != kNoReg)
                w.reg_cause[r.dst] =
                    walk::depCause(walk::ProducerKind::Load, dcache_missed);
        } else if (r.dst != kNoReg) {
            w.reg_cause[r.dst] = walk::depCause(
                r.is(kReplayLoad) ? walk::ProducerKind::Load
                : is_fp           ? walk::ProducerKind::Fp
                                  : walk::ProducerKind::Int,
                r.is(kReplayLoad) && dcache_missed);
        }

        if (ann & kAnnICacheMiss) {
            ++w.c_icache_misses;
            ++w.c_l2_accesses;
            if (ann & kAnnICacheL2Miss)
                ++w.c_l2_misses;
        }
        if (is_mem) {
            ++w.c_dcache_accesses;
            if (dcache_missed) {
                ++w.c_dcache_misses;
                ++w.c_l2_accesses;
                if (ann & kAnnDCacheL2Miss)
                    ++w.c_l2_misses;
            }
        }
        if (r.is(kReplayBranch)) {
            ++w.c_branches;
            if (ann & kAnnMispredict)
                ++w.c_mispredicts;
        }
    }
}

#if PIPEDEPTH_WALK_WIDE
/*
 * The wide passes: the only code in src/uarch built for AVX2 (width
 * 4) or AVX-512F (width 8). The target is set per function, never per
 * file: code built for the baseline ISA scalarizes 64-bit vector
 * compares, and a file built for AVX2 could hand AVX2 copies of
 * shared inline code to baseline callers. flatten inlines the whole
 * pass, so no lane vector crosses out of the wide code.
 */
template <std::size_t D>
[[gnu::target("avx2"), gnu::flatten]] void
walkPassAvx2(Walk<D, 4> &w, const ReplayBuffer &replay,
             const ReplayAnnotations &annotations)
{
    walkPass(w, replay, annotations);
}

template <std::size_t D>
[[gnu::target("avx512f"), gnu::flatten]] void
walkPassAvx512(Walk<D, 8> &w, const ReplayBuffer &replay,
               const ReplayAnnotations &annotations)
{
    walkPass(w, replay, annotations);
}
#endif

/**
 * The timing walk over D lanes in groups W wide: one pass over
 * @p replay advances the pipeline state of configs[0..D) at every
 * instruction and writes results[0..D).
 */
template <std::size_t D, std::size_t W>
void
walkLaneGroups(const ReplayBuffer &replay,
               const ReplayAnnotations &annotations,
               const PipelineConfig *configs, SimResult *results)
{
    // Heap-allocated: with 24 lanes the state is tens of kilobytes.
    const auto w = std::make_unique<Walk<D, W>>(configs, annotations);
#if PIPEDEPTH_WALK_WIDE
    if constexpr (W == 8)
        walkPassAvx512(*w, replay, annotations);
    else if constexpr (W == 4)
        walkPassAvx2(*w, replay, annotations);
    else
#endif
        walkPass(*w, replay, annotations);

    // Per-*run* registry updates only (docs/OBSERVABILITY.md), once
    // per lane: nothing telemetry-related may enter the
    // per-instruction loop.
    static Gauge &residual_gauge =
        MetricsRegistry::instance().gauge("sim.ledger.residual");

    const std::size_t n_ops = replay.size();
    for (std::size_t j = 0; j < D; ++j) {
        const GroupState<Lanes<W>> &s = w->groups[j / W];
        const std::size_t k = j % W;
        const PipelineConfig &config = configs[j];
        SimResult &res = results[j];
        res.workload = replay.name;
        res.depth = config.depth;
        res.cycle_time_fo4 = config.cycleTime();
        res.config = config;

        res.instructions = n_ops;
        res.cycles =
            static_cast<std::uint64_t>(laneAt(s.retire_seq, k) + 1);
        res.branches = w->c_branches;
        res.mispredicts = w->c_mispredicts;
        res.mispredict_events = w->c_mispredicts;
        res.icache_accesses = n_ops;
        res.icache_misses = w->c_icache_misses;
        res.dcache_accesses = w->c_dcache_accesses;
        res.dcache_misses = w->c_dcache_misses;
        res.dcache_miss_events = w->c_dcache_misses;
        res.l2_accesses = w->c_l2_accesses;
        res.l2_misses = w->c_l2_misses;

        TELEM_SPAN(ledger_span, "ledger.audit");
        ledger_span.tag("workload", replay.name);
        ledger_span.tag("depth", config.depth);
        StallLedger &ledger = w->ledgers[j];
        const LaneTally &tally = w->tally[j];
        if (!config.audit_ledger) {
            ledger.commitStream(
                n_ops, static_cast<std::uint64_t>(laneAt(s.work_cycles, k)),
                tally.cycles, tally.events);
        }
        ledger.finalize(res.cycles);
        res.base_work_cycles = ledger.cycles(StallBucket::BaseWork);
        res.superscalar_loss_cycles =
            ledger.cycles(StallBucket::SuperscalarLoss);
        res.mispredict_stall_cycles =
            ledger.cycles(StallBucket::Mispredict);
        res.icache_stall_cycles = ledger.cycles(StallBucket::ICache);
        res.dcache_stall_cycles = ledger.cycles(StallBucket::DCacheMiss);
        res.load_interlock_stall_cycles =
            ledger.cycles(StallBucket::DepLoad);
        res.fp_interlock_stall_cycles = ledger.cycles(StallBucket::DepFp);
        res.int_interlock_stall_cycles =
            ledger.cycles(StallBucket::DepInt);
        res.unit_busy_stall_cycles = ledger.cycles(StallBucket::UnitBusy);
        res.drain_cycles = ledger.cycles(StallBucket::Drain);
        res.other_stall_cycles = ledger.cycles(StallBucket::Other);
        res.load_interlock_events = ledger.events(StallBucket::DepLoad);
        res.fp_interlock_events = ledger.events(StallBucket::DepFp);
        res.int_interlock_events = ledger.events(StallBucket::DepInt);
        res.ledger_residual = ledger.residual();
        if (config.audit_ledger) {
            PP_ASSERT(res.ledger_residual == 0,
                      "stall ledger conservation violated for '",
                      replay.name, "' at depth ", config.depth,
                      ": residual ", res.ledger_residual);
            // The lane's own tally must agree with its commits.
            for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
                const auto bucket = static_cast<StallBucket>(b);
                if (!isChargeableBucket(bucket))
                    continue;
                PP_ASSERT(tally.cycles[b] == ledger.cycles(bucket) &&
                              tally.events[b] == ledger.events(bucket),
                          "lane tally of bucket ", stallBucketName(bucket),
                          " disagrees with the audited ledger at depth ",
                          config.depth);
            }
        }

        for (std::size_t u = 0; u < kNumUnits; ++u) {
            const Activity<Lanes<W>> &a = s.activity[u];
            res.units[u].depth = config.unit_depth[u];
            res.units[u].active_cycles =
                static_cast<std::uint64_t>(laneAt(a.active, k));
            res.units[u].occupancy =
                static_cast<std::uint64_t>(laneAt(a.occupancy, k));
            res.units[u].ops = static_cast<std::uint64_t>(laneAt(a.ops, k));
        }
        // Fetch, Complete and Retire take one unit-length interval per
        // instruction: one op and one cycle of occupancy each. Retire
        // cycles are non-decreasing, so its active cycles are the
        // distinct retire cycles, which the ledger splits into base
        // work and superscalar loss.
        for (Unit u : {Unit::Fetch, Unit::Complete, Unit::Retire}) {
            res.units[static_cast<std::size_t>(u)].occupancy = n_ops;
            res.units[static_cast<std::size_t>(u)].ops = n_ops;
        }
        res.units[static_cast<std::size_t>(Unit::Retire)].active_cycles =
            res.base_work_cycles + res.superscalar_loss_cycles;

        residual_gauge.set(res.ledger_residual);
    }
}

/**
 * One pass over D lanes, in the widest lane groups that @p lane_width
 * allows and that tile D; returns the width it ran at.
 */
template <std::size_t D>
std::size_t
walkPart(const ReplayBuffer &replay, const ReplayAnnotations &annotations,
         const PipelineConfig *configs, SimResult *results,
         std::size_t lane_width)
{
#if PIPEDEPTH_WALK_WIDE
    if constexpr (D % 8 == 0) {
        if (lane_width >= 8) {
            walkLaneGroups<D, 8>(replay, annotations, configs, results);
            return 8;
        }
    }
    if constexpr (D % 4 == 0) {
        if (lane_width >= 4) {
            walkLaneGroups<D, 4>(replay, annotations, configs, results);
            return 4;
        }
    }
#endif
    (void)lane_width;
    walkLaneGroups<D, 1>(replay, annotations, configs, results);
    return 1;
}

/** Same machine structure: the fields canFuseConfigs() compares. */
bool
sameShape(const PipelineConfig &a, const PipelineConfig &c)
{
    return c.width == a.width && c.agen_width == a.agen_width &&
           c.in_order == a.in_order && c.fetch_buffer == a.fetch_buffer &&
           c.agen_queue == a.agen_queue && c.exec_queue == a.exec_queue &&
           c.max_inflight == a.max_inflight &&
           c.model_memory_dependences == a.model_memory_dependences;
}

} // namespace

bool
canFuseConfigs(const std::vector<PipelineConfig> &configs)
{
    return std::all_of(configs.begin(), configs.end(),
                       [&](const PipelineConfig &c) {
                           return sameShape(configs.front(), c);
                       });
}

namespace walk
{

std::size_t
nativeLaneWidth()
{
#if PIPEDEPTH_WALK_WIDE
    static const std::size_t width = [] {
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f"))
            return std::size_t{8};
        if (__builtin_cpu_supports("avx2"))
            return std::size_t{4};
        return std::size_t{1};
    }();
    return width;
#else
    return 1;
#endif
}

void
timingWalk(const ReplayBuffer &replay, const ReplayAnnotations &annotations,
           std::span<const PipelineConfig> configs,
           std::span<SimResult> results)
{
    timingWalk(replay, annotations, configs, results, nativeLaneWidth());
}

void
timingWalk(const ReplayBuffer &replay, const ReplayAnnotations &annotations,
           std::span<const PipelineConfig> configs,
           std::span<SimResult> results, std::size_t lane_width)
{
    PP_ASSERT(results.size() == configs.size(),
              "one result per configuration");
    PP_ASSERT((lane_width == 1 || lane_width == 4 || lane_width == 8) &&
                  lane_width <= nativeLaneWidth(),
              "lane width ", lane_width, " is not one this CPU runs");
    // Which kernel ran, once per pass (docs/OBSERVABILITY.md).
    static Gauge &width_gauge =
        MetricsRegistry::instance().gauge("sim.walk.lane_width");
    // The compiled lane counts: 1 (simulate), 4 (the golden depths,
    // and the groups a multi-threaded one-workload sweep forms), 24
    // (depths 2..25, the catalog grid), and 2 and 8 so that other
    // counts split into few passes.
    std::size_t k = 0;
    while (k < configs.size()) {
        const std::size_t left = configs.size() - k;
        const PipelineConfig *c = configs.data() + k;
        SimResult *out = results.data() + k;
        std::size_t lanes = 1;
        std::size_t ran = 1;
        if (left >= 24) {
            lanes = 24;
            ran = walkPart<24>(replay, annotations, c, out, lane_width);
        } else if (left >= 8) {
            lanes = 8;
            ran = walkPart<8>(replay, annotations, c, out, lane_width);
        } else if (left >= 4) {
            lanes = 4;
            ran = walkPart<4>(replay, annotations, c, out, lane_width);
        } else if (left >= 2) {
            lanes = 2;
            ran = walkPart<2>(replay, annotations, c, out, lane_width);
        } else {
            ran = walkPart<1>(replay, annotations, c, out, lane_width);
        }
        width_gauge.set(static_cast<std::int64_t>(ran));
        k += lanes;
    }
}

} // namespace walk

std::vector<SimResult>
simulateMultiDepth(const ReplayBuffer &replay,
                   const ReplayAnnotations &annotations,
                   const std::vector<PipelineConfig> &configs)
{
    if (configs.empty())
        return {};
    if (replay.empty())
        PP_FATAL("cannot simulate an empty trace");
    annotations.validateFor(replay);
    for (const PipelineConfig &config : configs)
        config.validate();

    // Walk classes, in order of first appearance: the configs that
    // share a machine shape and a microarchitectural key, by index.
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t k = 0; k < configs.size(); ++k) {
        const auto joins = [&](const std::vector<std::size_t> &members) {
            const PipelineConfig &first = configs[members.front()];
            return sameShape(first, configs[k]) &&
                   microarchKeyOf(first, replay.size()) ==
                       microarchKeyOf(configs[k], replay.size());
        };
        const auto it = std::find_if(classes.begin(), classes.end(), joins);
        if (it == classes.end())
            classes.push_back({k});
        else
            it->push_back(k);
    }

    std::vector<SimResult> results(configs.size());
    for (const std::vector<std::size_t> &members : classes) {
        std::vector<PipelineConfig> lanes;
        lanes.reserve(members.size());
        for (std::size_t k : members)
            lanes.push_back(configs[k]);
        // The annotations depend on the key alone, so one set serves
        // the whole class.
        ReplayAnnotations own;
        const bool matches =
            annotations.matches(lanes.front(), replay.size());
        if (!matches)
            own = annotateReplay(replay, lanes.front());
        std::vector<SimResult> walked(lanes.size());
        walk::timingWalk(replay, matches ? annotations : own, lanes,
                         walked);
        for (std::size_t m = 0; m < members.size(); ++m)
            results[members[m]] = std::move(walked[m]);
    }
    return results;
}

} // namespace pipedepth
