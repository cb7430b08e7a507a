#include "uarch/multi_depth_walk.hh"

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "ledger/stall_ledger.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "uarch/walk_state.hh"

namespace pipedepth
{

using walk::Activity;
using walk::Cycle;
using walk::IssuePorts;
using walk::ProducerKind;

namespace
{

/** One value per lane. */
template <typename T, std::size_t D>
using PerLane = std::array<T, D>;

/**
 * A ring of per-lane cycle stamps, [slot][lane], behind one cursor
 * that every lane shares. Which rings an instruction touches depends
 * only on its replay flags, never on timing, and canFuseConfigs()
 * gives every lane the same ring sizes, so all lanes step through the
 * same slot sequence. The walk reads and writes the current slot in
 * its lane loop and advances the cursor once per event, after it.
 * A slot holds N stamps: one per lane, or one per (stage, lane) when
 * several stages advance together.
 *
 * As a width limit (at most `size` grants per cycle) a stamp is the
 * lane's grant `size` grants ago; as a buffer capacity it is the exit
 * time of the entry admitted `size` admissions ago. Either way the
 * next event may happen no earlier than one cycle after the stamp.
 *
 * The cursor is a pointer to the current slot rather than an index:
 * one load finds a lane's stamp, which keeps many-lane walks fast
 * without holding every ring's slot address live through a one-lane
 * walk.
 */
template <std::size_t N>
class LaneRing
{
  public:
    explicit LaneRing(int size)
    {
        PP_ASSERT(size >= 1, "ring size must be positive");
        PerLane<Cycle, N> empty;
        empty.fill(-1);
        slots_.assign(static_cast<std::size_t>(size), empty);
        current_ = slots_.data();
    }

    // current_ points into slots_.
    LaneRing(const LaneRing &) = delete;
    LaneRing &operator=(const LaneRing &) = delete;

    /** The current slot's stamps. */
    PerLane<Cycle, N> &
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
    std::vector<PerLane<Cycle, N>> slots_;
    PerLane<Cycle, N> *current_ = nullptr;
};

/** Width limit: the first cycle at or after @p candidate that the
 *  slot's @p stamp allows; the grant becomes the new stamp. */
inline Cycle
grant(Cycle &stamp, Cycle candidate)
{
    const Cycle t = std::max(candidate, stamp + 1);
    stamp = t;
    return t;
}

/** Capacity limit: the first cycle at or after @p candidate after the
 *  slot's previous entry left at @p exit. */
inline Cycle
admit(Cycle exit, Cycle candidate)
{
    return std::max(candidate, exit + 1);
}

/**
 * The depth-dependent pipeline parameters of one lane's
 * configuration, resolved once so the per-instruction lane loop reads
 * plain integers.
 */
struct DepthParams
{
    int dD;
    int dRN;
    int dAQ;
    int dA;
    int dC;
    int dEQ;
    int dE;
    int l2_penalty;
    int mem_penalty;
    int fwd_latency;
    int taken_bubble;
    bool audited;
};

DepthParams
paramsOf(const PipelineConfig &config)
{
    DepthParams p;
    p.dD = config.unit_depth[static_cast<std::size_t>(Unit::Decode)];
    p.dRN = config.unit_depth[static_cast<std::size_t>(Unit::Rename)];
    p.dAQ = config.unit_depth[static_cast<std::size_t>(Unit::AgenQ)];
    p.dA = config.unit_depth[static_cast<std::size_t>(Unit::Agen)];
    p.dC = config.unit_depth[static_cast<std::size_t>(Unit::DCache)];
    p.dEQ = config.unit_depth[static_cast<std::size_t>(Unit::ExecQ)];
    p.dE = config.unit_depth[static_cast<std::size_t>(Unit::Fxu)];
    p.l2_penalty = config.l2PenaltyCycles();
    p.mem_penalty = config.missPenaltyCycles();
    p.fwd_latency = config.forwardLatency(p.dE);
    p.taken_bubble = config.takenBranchBubble();
    p.audited = config.audit_ledger;
    return p;
}

template <std::size_t... J>
PerLane<StallLedger, sizeof...(J)>
makeLedgers(int width, std::index_sequence<J...>)
{
    return {{((void)J, StallLedger(width))...}};
}

/**
 * The timing walk over D lanes: one pass over @p replay advances the
 * pipeline state of configs[0..D) at every instruction and writes
 * results[0..D).
 *
 * Per-lane state is an array indexed by lane (rings [slot][lane],
 * scoreboard [reg][lane], unit activity [unit][lane]) whose size the
 * compiler knows, so the lane loop has a constant trip count and
 * constant strides. The lanes are mutually independent — no value
 * computed for lane j feeds lane j+1 — so the hardware overlaps their
 * dependency chains. What depends on the replay op and its
 * annotations alone (ring cursors, event counters) is done once per
 * instruction, after the lane loop, not once per lane.
 */
template <std::size_t D>
void
walkLanes(const ReplayBuffer &replay, const ReplayAnnotations &annotations,
          const PipelineConfig *configs, SimResult *results)
{
    using Stamps = PerLane<Cycle, D>;

    const PipelineConfig &shape = configs[0];
    const int width = shape.width;
    const bool in_order = shape.in_order;
    const bool model_memdep = shape.model_memory_dependences;
    const Cycle inflight_window = static_cast<Cycle>(shape.max_inflight);

    PerLane<DepthParams, D> params;
    for (std::size_t j = 0; j < D; ++j)
        params[j] = paramsOf(configs[j]);

    // Fetch, decode, complete and retire each grant one slot per
    // instruction under the same width, so they share one ring: lane
    // j's stamp of stage k is slot[k * D + j].
    LaneRing<4 * D> stage_slots(width);
    LaneRing<D> agen_slots(shape.agen_width);
    LaneRing<D> exec_slots(width);

    LaneRing<D> fetch_buffer(shape.fetch_buffer);
    LaneRing<D> agen_queue(shape.agen_queue);
    LaneRing<D> exec_queue(shape.exec_queue);
    LaneRing<D> inflight(shape.max_inflight);

    // Out-of-order issue ports keep per-cycle counts in a map, so
    // they are one object per lane rather than a ring.
    std::vector<IssuePorts> ooo_ports;
    if (!in_order)
        ooo_ports.assign(D, IssuePorts(width));

    // Register scoreboard, [reg][lane]. Value-initialized: every
    // register ready at cycle 0, no producer, no miss.
    std::array<Stamps, kNumRegs> reg_ready{};
    std::array<PerLane<ProducerKind, D>, kNumRegs> reg_producer{};
    std::array<PerLane<bool, D>, kNumRegs> reg_missed{};

    std::array<PerLane<Activity, D>, kNumUnits> activity{};
    auto act = [&activity](Unit u) -> PerLane<Activity, D> & {
        return activity[static_cast<std::size_t>(u)];
    };

    // Data-ready cycle of each recorded store, [store][lane]. The
    // store sequence numbering is depth-invariant, so one shared
    // counter indexes it.
    std::vector<Stamps> store_ready(annotations.num_stores, Stamps{});
    std::uint32_t store_seq = 0;

    Stamps fetch_seq{}; //!< earliest fetch for the next instruction
    Stamps decode_seq{};
    Stamps agen_seq{};
    Stamps exec_seq{};
    Stamps complete_seq{};
    Stamps retire_seq{};
    Stamps redirect_time{}; //!< younger fetches blocked until here
    Stamps fpu_busy{};      //!< unpipelined FPU free time
    Stamps div_busy{};      //!< unpipelined integer divider free time
    Stamps last_retire{};

    PerLane<StallLedger, D> ledgers =
        makeLedgers(width, std::make_index_sequence<D>{});

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

    const std::size_t n_ops = replay.size();
    for (std::size_t i = 0; i < n_ops; ++i) {
        // A copy, not a reference: the lane loop's stores could alias
        // the op's byte fields and force a reload of each per lane.
        const ReplayOp r = replay.ops[i];
        const std::uint8_t ann = annotations.flags[i];
        const bool dcache_missed = r.is(kReplayMem) &&
                                   (ann & kAnnForwarded) == 0 &&
                                   (ann & kAnnDCacheMiss) != 0;

        for (std::size_t j = 0; j < D; ++j) {
            const DepthParams &p = params[j];
            // The last binding constraint this instruction met on its
            // way to issue (used when its retire bubble is bound by
            // arrival).
            StallBucket path_cause = StallBucket::Other;

            // ---- Fetch ------------------------------------------------
            Cycle f_base = fetch_seq[j];
            f_base = admit(fetch_buffer.current()[j], f_base);
            f_base = admit(inflight.current()[j], f_base);
            if (redirect_time[j] > f_base) {
                f_base = redirect_time[j];
                path_cause = StallBucket::Mispredict;
            }
            Cycle f = grant(stage_slots.current()[j], f_base);
            if (ann & kAnnICacheMiss) {
                // Penalty beyond the L1 pipe for a miss: L2 hit
                // latency, plus memory on an L2 miss. Both are
                // constant in absolute time and therefore grow in
                // cycles as the pipeline deepens.
                f += p.l2_penalty;
                if (ann & kAnnICacheL2Miss)
                    f += p.mem_penalty;
                path_cause = StallBucket::ICache;
            }
            act(Unit::Fetch)[j].tick(f);
            fetch_seq[j] = f;

            // ---- Decode (+ Rename when present) -----------------------
            const Cycle d = grant(stage_slots.current()[D + j],
                                  std::max(f + 1, decode_seq[j]));
            decode_seq[j] = d;
            const Cycle de = d + p.dD + p.dRN;

            // ---- Dispatch with queue backpressure ---------------------
            Cycle dispatch;
            if (r.is(kReplayMem))
                dispatch = admit(agen_queue.current()[j], de);
            else
                dispatch = admit(exec_queue.current()[j], de);
            act(Unit::Decode)[j].add(d, std::max(de, dispatch));
            if (p.dRN > 0)
                act(Unit::Rename)[j].add(d + p.dD, de);

            Cycle exec_arrival; //!< when the op reaches the Exec Q exit
            Cycle cache_done = 0;

            if (r.is(kReplayMem)) {
                // ---- Agen Q -> Agen -> Cache Access -------------------
                const Cycle base_ready =
                    r.src3 != kNoReg ? reg_ready[r.src3][j] : 0;
                Cycle a_cand = std::max(dispatch + p.dAQ, agen_seq[j]);
                if (base_ready > a_cand) {
                    a_cand = base_ready;
                    if (r.src3 != kNoReg)
                        path_cause = walk::depCause(reg_producer[r.src3][j],
                                                    reg_missed[r.src3][j]);
                }
                const Cycle aissue = grant(agen_slots.current()[j], a_cand);
                agen_seq[j] = aissue;
                agen_queue.current()[j] = aissue;
                act(Unit::AgenQ)[j].add(dispatch, aissue);
                const Cycle agen_done = aissue + p.dA;
                if (p.dA > 0) {
                    act(Unit::Agen)[j].add(aissue, agen_done);
                } else {
                    // Agen merged into decode: logic shares those cycles.
                    act(Unit::Agen)[j].add(d, de);
                }

                // Stores must have their data by the cache access.
                Cycle cache_start = agen_done;
                if (r.is(kReplayStore) && r.src1 != kNoReg &&
                    reg_ready[r.src1][j] > cache_start) {
                    cache_start = reg_ready[r.src1][j];
                    path_cause = walk::depCause(reg_producer[r.src1][j],
                                                reg_missed[r.src1][j]);
                }

                // A load hitting a recent store's dword takes the
                // forwarding path instead of the memory path. The
                // annotations recorded the decision (trace-order
                // state); only the store's depth-dependent data-ready
                // cycle is looked up here.
                if (ann & kAnnForwarded) {
                    const Cycle st =
                        store_ready[annotations.fwd_store[i]][j];
                    // One cycle after the store data is ready, but
                    // never earlier than the load's own pipe stage.
                    const Cycle pipe_done = cache_start + p.dC;
                    cache_done = std::max(pipe_done, st + 1);
                    // Only a *binding* wait for the store's data is a
                    // load interlock; forwarding that shortens the
                    // path is not a hazard.
                    if (cache_done > pipe_done)
                        path_cause = StallBucket::DepLoad;
                } else {
                    cache_done = cache_start + p.dC;
                    if (dcache_missed) {
                        cache_done += p.l2_penalty;
                        if (ann & kAnnDCacheL2Miss)
                            cache_done += p.mem_penalty;
                        // The op reaches issue late by a constant-time
                        // memory stall.
                        path_cause = StallBucket::DCacheMiss;
                    }
                }
                if (model_memdep && r.is(kReplayStore)) {
                    // Data becomes forwardable once the store reaches
                    // the cache stage with its operand in hand.
                    store_ready[store_seq][j] = cache_start;
                }
                if (p.dC > 0)
                    act(Unit::DCache)[j].add(cache_start,
                                             cache_start + p.dC);
                exec_arrival = cache_done + p.dEQ;
            } else {
                exec_arrival = dispatch + p.dEQ;
            }

            // ---- Execute ----------------------------------------------
            Cycle ecomp;
            // What this instruction's retire bubble will be charged
            // to. Memory ops that complete at the cache carry their
            // arrival path's constraint; exec-path ops refine it at
            // issue below.
            StallBucket stall_cause = path_cause;
            if (r.is(kReplayStore) || r.opClass() == OpClass::Load) {
                // Stores and pure loads complete at the cache; they do
                // not pass the execution pipe (only RX *ALU* ops do).
                // Load data forwards to consumers straight from the
                // cache.
                ecomp = cache_done;
                if (r.opClass() == OpClass::Load && r.dst != kNoReg) {
                    reg_ready[r.dst][j] = cache_done + 1;
                    reg_producer[r.dst][j] = ProducerKind::Load;
                    reg_missed[r.dst][j] = dcache_missed;
                }
            } else {
                // Operand readiness at issue.
                Cycle ready = 0;
                ProducerKind binding = ProducerKind::None;
                bool binding_missed = false;
                auto need = [&](std::uint8_t reg) {
                    if (reg == kNoReg)
                        return;
                    if (reg_ready[reg][j] > ready) {
                        ready = reg_ready[reg][j];
                        binding = reg_producer[reg][j];
                        binding_missed = reg_missed[reg][j];
                    }
                };
                need(r.src1);
                need(r.src2);

                Cycle busy = 0;
                if (r.is(kReplayFp))
                    busy = fpu_busy[j];
                if (r.opClass() == OpClass::IntDiv)
                    busy = std::max(busy, div_busy[j]);

                Cycle eissue;
                if (in_order) {
                    const Cycle cand =
                        std::max({ready, busy, exec_arrival, exec_seq[j]});
                    eissue = grant(exec_slots.current()[j], cand);
                    exec_seq[j] = eissue;
                } else {
                    // Out-of-order: issue as soon as operands and a
                    // port are available; program order does not gate
                    // issue. The window is still bounded by
                    // max_inflight (the ROB) and completion remains in
                    // order, so the ledger attributes retire bubbles
                    // the same way as in-order mode.
                    const Cycle cand = std::max({ready, busy, exec_arrival});
                    eissue = ooo_ports[j].grant(cand);
                    if (i % 4096 == 0) {
                        // Cheap low-water pruning: nothing can issue
                        // before the oldest in-flight instruction
                        // fetched.
                        ooo_ports[j].prune(eissue - 8 * inflight_window);
                    }
                    exec_seq[j] = std::max(exec_seq[j], eissue);
                }

                // Attribute to the binding issue constraint; ties
                // prefer the non-hazard explanation.
                if (exec_arrival >= std::max(ready, busy)) {
                    stall_cause = path_cause;
                } else if (ready >= busy) {
                    stall_cause = walk::depCause(binding, binding_missed);
                } else {
                    stall_cause = StallBucket::UnitBusy;
                }
                exec_queue.current()[j] = eissue;
                const Cycle entry = r.is(kReplayMem) ? cache_done : dispatch;
                act(Unit::ExecQ)[j].add(entry, eissue);

                ecomp = eissue + p.dE + (r.exec_latency - 1);
                // Dependents of simple pipelined integer ops see the
                // forwarded result early (see PipelineConfig::fwd_frac);
                // everything else pays the full path.
                Cycle result_ready = ecomp;
                if (!r.is(kReplayFp) && !r.is(kReplayMem) &&
                    !r.is(kReplayUnpipelined)) {
                    result_ready =
                        eissue + p.fwd_latency + (r.exec_latency - 1);
                }
                if (r.is(kReplayFp)) {
                    act(Unit::Fpu)[j].add(eissue, ecomp);
                    if (r.is(kReplayUnpipelined))
                        fpu_busy[j] = ecomp;
                } else {
                    act(Unit::Fxu)[j].add(eissue, ecomp);
                    if (p.dC == 0 && r.is(kReplayMem)) {
                        // Cache access merged into the execute cycle.
                        act(Unit::DCache)[j].add(eissue, ecomp);
                    }
                    if (r.is(kReplayUnpipelined))
                        div_busy[j] = ecomp;
                }

                if (r.dst != kNoReg) {
                    reg_ready[r.dst][j] = result_ready;
                    reg_producer[r.dst][j] =
                        r.is(kReplayLoad) ? ProducerKind::Load
                        : r.is(kReplayFp) ? ProducerKind::Fp
                                          : ProducerKind::Int;
                    reg_missed[r.dst][j] =
                        r.is(kReplayLoad) && dcache_missed;
                }
            }

            // ---- Branch resolution ------------------------------------
            if (r.is(kReplayBranch)) {
                if (ann & kAnnMispredict) {
                    redirect_time[j] = std::max(redirect_time[j], ecomp + 1);
                } else if (r.is(kReplayTaken)) {
                    // Correctly predicted taken branches still break
                    // the fetch group (one-bubble redirect via the BTB).
                    fetch_seq[j] = std::max(fetch_seq[j], f + p.taken_bubble);
                }
            }

            // ---- Complete and retire (in order) -----------------------
            const Cycle comp = grant(stage_slots.current()[2 * D + j],
                                     std::max(ecomp + 1, complete_seq[j]));
            complete_seq[j] = comp;
            act(Unit::Complete)[j].tick(comp);

            const Cycle ret = grant(stage_slots.current()[3 * D + j],
                                    std::max(comp + 1, retire_seq[j]));
            retire_seq[j] = ret;
            act(Unit::Retire)[j].tick(ret);
            // The fast path charges the same single bucket; the
            // audited path re-validates the retire-stream
            // preconditions.
            if (p.audited)
                ledgers[j].commit(ret, stall_cause);
            else
                ledgers[j].commitFast(ret, stall_cause);

            fetch_buffer.current()[j] = d;
            inflight.current()[j] = ret;
            last_retire[j] = std::max(last_retire[j], ret);
        }

        // One cursor advance per ring event, shared by all lanes.
        stage_slots.advance();
        fetch_buffer.advance();
        inflight.advance();
        if (r.is(kReplayMem)) {
            agen_slots.advance();
            agen_queue.advance();
        }
        if (!(r.is(kReplayStore) || r.opClass() == OpClass::Load)) {
            exec_queue.advance();
            if (in_order)
                exec_slots.advance();
        }
        if (model_memdep && r.is(kReplayStore))
            ++store_seq;

        if (ann & kAnnICacheMiss) {
            ++c_icache_misses;
            ++c_l2_accesses;
            if (ann & kAnnICacheL2Miss)
                ++c_l2_misses;
        }
        if (r.is(kReplayMem)) {
            ++c_dcache_accesses;
            if (dcache_missed) {
                ++c_dcache_misses;
                ++c_l2_accesses;
                if (ann & kAnnDCacheL2Miss)
                    ++c_l2_misses;
            }
        }
        if (r.is(kReplayBranch)) {
            ++c_branches;
            if (ann & kAnnMispredict)
                ++c_mispredicts;
        }
    }

    // Per-*run* registry updates only (docs/OBSERVABILITY.md), once
    // per lane: nothing telemetry-related may enter the
    // per-instruction loop.
    static Gauge &residual_gauge =
        MetricsRegistry::instance().gauge("sim.ledger.residual");

    for (std::size_t j = 0; j < D; ++j) {
        const PipelineConfig &config = configs[j];
        SimResult &res = results[j];
        res.workload = replay.name;
        res.depth = config.depth;
        res.cycle_time_fo4 = config.cycleTime();
        res.config = config;

        res.instructions = n_ops;
        res.cycles = static_cast<std::uint64_t>(last_retire[j] + 1);
        res.branches = c_branches;
        res.mispredicts = c_mispredicts;
        res.mispredict_events = c_mispredicts;
        res.icache_accesses = n_ops;
        res.icache_misses = c_icache_misses;
        res.dcache_accesses = c_dcache_accesses;
        res.dcache_misses = c_dcache_misses;
        res.dcache_miss_events = c_dcache_misses;
        res.l2_accesses = c_l2_accesses;
        res.l2_misses = c_l2_misses;

        TELEM_SPAN(ledger_span, "ledger.audit");
        ledger_span.tag("workload", replay.name);
        ledger_span.tag("depth", config.depth);
        StallLedger &ledger = ledgers[j];
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
        }

        for (std::size_t u = 0; u < kNumUnits; ++u) {
            const Activity &a = activity[u][j];
            res.units[u].depth = config.unit_depth[u];
            res.units[u].active_cycles = a.active;
            res.units[u].occupancy = a.occupancy;
            res.units[u].ops = a.ops;
        }
        // Fetch, Complete and Retire tick one unit-length interval
        // per instruction: one op and one cycle of occupancy each.
        for (Unit u : {Unit::Fetch, Unit::Complete, Unit::Retire}) {
            res.units[static_cast<std::size_t>(u)].occupancy = n_ops;
            res.units[static_cast<std::size_t>(u)].ops = n_ops;
        }

        residual_gauge.set(res.ledger_residual);
    }
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

void
timingWalk(const ReplayBuffer &replay, const ReplayAnnotations &annotations,
           std::span<const PipelineConfig> configs,
           std::span<SimResult> results)
{
    PP_ASSERT(results.size() == configs.size(),
              "one result per configuration");
    // The compiled lane counts: 1 (simulate), 4 (the golden depths,
    // and the groups a multi-threaded one-workload sweep forms), 24
    // (depths 2..25, the catalog grid), and 2 and 8 so that other
    // counts split into few passes.
    std::size_t k = 0;
    while (k < configs.size()) {
        const std::size_t left = configs.size() - k;
        const PipelineConfig *c = configs.data() + k;
        SimResult *out = results.data() + k;
        if (left >= 24) {
            walkLanes<24>(replay, annotations, c, out);
            k += 24;
        } else if (left >= 8) {
            walkLanes<8>(replay, annotations, c, out);
            k += 8;
        } else if (left >= 4) {
            walkLanes<4>(replay, annotations, c, out);
            k += 4;
        } else if (left >= 2) {
            walkLanes<2>(replay, annotations, c, out);
            k += 2;
        } else {
            walkLanes<1>(replay, annotations, c, out);
            k += 1;
        }
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
