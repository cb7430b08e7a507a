#include "reference_walk.hh"

#include <algorithm>
#include <array>
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

/**
 * Enforces a per-cycle width limit: at most `width` grants per cycle,
 * given non-decreasing candidates. The stored value at the cursor is
 * the grant time `width` grants ago; the new grant must be at least
 * one cycle later.
 */
class SlotRing
{
  public:
    explicit SlotRing(int width)
        : times_(static_cast<std::size_t>(width), -1)
    {
        PP_ASSERT(width >= 1, "width must be positive");
    }

    Cycle
    grant(Cycle candidate)
    {
        const Cycle t = std::max(candidate, times_[idx_] + 1);
        times_[idx_] = t;
        if (++idx_ == times_.size())
            idx_ = 0;
        return t;
    }

  private:
    std::vector<Cycle> times_;
    std::size_t idx_ = 0;
};

/**
 * Enforces a buffer capacity: a new entry may not be admitted until
 * the entry `capacity` admissions ago has left. Call entryOk() to get
 * the earliest admission time, then push() the eventual departure
 * time of the admitted entry.
 */
class CapacityRing
{
  public:
    explicit CapacityRing(int capacity)
        : exits_(static_cast<std::size_t>(capacity), -1)
    {
        PP_ASSERT(capacity >= 1, "capacity must be positive");
    }

    Cycle
    entryOk(Cycle candidate) const
    {
        return std::max(candidate, exits_[idx_] + 1);
    }

    void
    push(Cycle exit_time)
    {
        exits_[idx_] = exit_time;
        if (++idx_ == exits_.size())
            idx_ = 0;
    }

  private:
    std::vector<Cycle> exits_;
    std::size_t idx_ = 0;
};

} // namespace

SimResult
referenceSimulate(const ReplayBuffer &replay,
                  const ReplayAnnotations &annotations,
                  const PipelineConfig &config)
{
    config.validate();
    if (replay.empty())
        PP_FATAL("cannot simulate an empty trace");
    annotations.validateFor(replay);
    PP_ASSERT(annotations.matches(config, replay.size()),
              "replay annotations do not match this configuration");

    const int dD = config.unit_depth[static_cast<std::size_t>(
        Unit::Decode)];
    const int dRN = config.unit_depth[static_cast<std::size_t>(
        Unit::Rename)];
    const int dAQ = config.unit_depth[static_cast<std::size_t>(
        Unit::AgenQ)];
    const int dA = config.unit_depth[static_cast<std::size_t>(
        Unit::Agen)];
    const int dC = config.unit_depth[static_cast<std::size_t>(
        Unit::DCache)];
    const int dEQ = config.unit_depth[static_cast<std::size_t>(
        Unit::ExecQ)];
    const int dE = config.unit_depth[static_cast<std::size_t>(Unit::Fxu)];
    const int l2_penalty = config.l2PenaltyCycles();
    const int mem_penalty = config.missPenaltyCycles();
    // Loop-invariant pieces of the per-instruction work, hoisted:
    // these are pure functions of the configuration, not of the
    // instruction.
    const int fwd_latency = config.forwardLatency(dE);
    const int taken_bubble = config.takenBranchBubble();
    const bool in_order = config.in_order;
    const bool model_memdep = config.model_memory_dependences;
    const bool audited = config.audit_ledger;

    SlotRing fetch_slots(config.width);
    SlotRing decode_slots(config.width);
    SlotRing agen_slots(config.agen_width);
    SlotRing exec_slots(config.width);
    IssuePorts ooo_ports(config.width); // out-of-order issue only
    SlotRing complete_slots(config.width);
    SlotRing retire_slots(config.width);

    CapacityRing fetch_buffer(config.fetch_buffer);
    CapacityRing agen_queue(config.agen_queue);
    CapacityRing exec_queue(config.exec_queue);
    CapacityRing inflight(config.max_inflight);

    std::array<Cycle, kNumRegs> reg_ready{};
    std::array<ProducerKind, kNumRegs> reg_producer{};
    std::array<bool, kNumRegs> reg_missed{};
    reg_ready.fill(0);
    reg_producer.fill(ProducerKind::None);
    reg_missed.fill(false);

    std::array<Activity<Cycle>, kNumUnits> activity{};
    auto act = [&activity](Unit u) -> Activity<Cycle> & {
        return activity[static_cast<std::size_t>(u)];
    };

    SimResult res;
    res.workload = replay.name;
    res.depth = config.depth;
    res.cycle_time_fo4 = config.cycleTime();
    res.config = config;

    // Data-ready cycle of each recorded store, indexed by the store
    // sequence numbers the annotations refer to. A dense array read
    // replaces the store table's hash probes on the timing walk.
    std::vector<Cycle> store_ready(annotations.num_stores, 0);
    std::uint32_t store_seq = 0;
    // The next forwarded load's entry in annotations.fwd_store.
    std::size_t fwd_next = 0;

    Cycle fetch_seq = 0;     //!< earliest fetch for the next instruction
    Cycle decode_seq = 0;
    Cycle agen_seq = 0;
    Cycle exec_seq = 0;
    Cycle complete_seq = 0;
    Cycle retire_seq = 0;
    Cycle redirect_time = 0; //!< younger fetches blocked until here
    Cycle fpu_busy = 0;      //!< unpipelined FPU free time
    Cycle div_busy = 0;      //!< unpipelined integer divider free time
    Cycle last_retire = 0;

    /**
     * Why an instruction is late on its way to retirement. The stall
     * ledger charges the idle retire-slot cycles in front of each
     * instruction to this classification, which makes the per-cause
     * totals disjoint and — together with the ledger's base-work,
     * superscalar-loss and drain buckets — sum exactly to the cycle
     * count (the conservation invariant; see ledger/stall_ledger.hh).
     */
    using Cause = StallBucket;

    // Producer-kind classification shared with the fused walk
    // (walk_state.hh): the attribution rules are part of the
    // byte-identity contract between the two kernels.
    auto dep_cause = [](ProducerKind kind, bool missed) {
        return walk::depCause(kind, missed);
    };

    StallLedger ledger(config.width);

    for (std::size_t i = 0; i < replay.size(); ++i) {
        const ReplayOp &r = replay.ops[i];
        const std::uint8_t ann = annotations.flags[i];
        const bool is_mem = r.is(kReplayMem);
        // The last binding constraint this instruction met on its way
        // to issue (used when its retire bubble is bound by arrival).
        Cause path_cause = Cause::Other;

        // ---- Fetch ----------------------------------------------------
        Cycle f_base = fetch_seq;
        f_base = fetch_buffer.entryOk(f_base);
        f_base = inflight.entryOk(f_base);
        if (redirect_time > f_base) {
            f_base = redirect_time;
            path_cause = Cause::Mispredict;
        }
        Cycle f = fetch_slots.grant(f_base);
        ++res.icache_accesses;
        if (ann & kAnnICacheMiss) {
            ++res.icache_misses;
            // Penalty beyond the L1 pipe for a miss: L2 hit latency,
            // plus memory on an L2 miss. Both are constant in
            // absolute time and therefore grow in cycles as the
            // pipeline deepens.
            ++res.l2_accesses;
            f += l2_penalty;
            if (ann & kAnnICacheL2Miss) {
                ++res.l2_misses;
                f += mem_penalty;
            }
            path_cause = Cause::ICache;
        }
        act(Unit::Fetch).add(f, f + 1);
        fetch_seq = f;

        // ---- Decode (+ Rename when present) ---------------------------
        const Cycle d =
            decode_slots.grant(std::max(f + 1, decode_seq));
        decode_seq = d;
        const Cycle de = d + dD + dRN;

        // ---- Dispatch with queue backpressure -------------------------
        Cycle dispatch;
        if (is_mem) {
            dispatch = agen_queue.entryOk(de);
        } else {
            dispatch = exec_queue.entryOk(de);
        }
        act(Unit::Decode).add(d, std::max(de, dispatch));
        if (dRN > 0)
            act(Unit::Rename).add(d + dD, de);

        Cycle exec_arrival; //!< when the op reaches the Exec Q exit
        Cycle cache_done = 0;
        bool dcache_missed = false;

        if (is_mem) {
            // ---- Agen Q -> Agen -> Cache Access -----------------------
            const Cycle base_ready = r.src3 != kNoReg
                                         ? reg_ready[r.src3]
                                         : 0;
            Cycle a_cand = std::max(dispatch + dAQ, agen_seq);
            if (base_ready > a_cand) {
                a_cand = base_ready;
                if (r.src3 != kNoReg)
                    path_cause = dep_cause(reg_producer[r.src3],
                                           reg_missed[r.src3]);
            }
            const Cycle aissue = agen_slots.grant(a_cand);
            agen_seq = aissue;
            agen_queue.push(aissue);
            act(Unit::AgenQ).add(dispatch, aissue);
            const Cycle agen_done = aissue + dA;
            if (dA > 0) {
                act(Unit::Agen).add(aissue, agen_done);
            } else {
                // Agen merged into decode: logic shares those cycles.
                act(Unit::Agen).add(d, de);
            }

            // Stores must have their data by the cache access.
            Cycle cache_start = agen_done;
            if (r.is(kReplayStore) && r.src1 != kNoReg &&
                reg_ready[r.src1] > cache_start) {
                cache_start = reg_ready[r.src1];
                path_cause = dep_cause(reg_producer[r.src1],
                                       reg_missed[r.src1]);
            }

            // A load hitting a recent store's dword takes the
            // forwarding path instead of the memory path. The
            // annotations recorded the decision (it is trace-order
            // state, not timing state); only the store's
            // depth-dependent data-ready cycle is looked up here.
            ++res.dcache_accesses;
            if (ann & kAnnForwarded) {
                const Cycle st =
                    store_ready[annotations.fwd_store[fwd_next++]];
                // One cycle after the store data is ready, but never
                // earlier than the load's own pipe stage.
                const Cycle pipe_done = cache_start + dC;
                cache_done = std::max(pipe_done, st + 1);
                // Only a *binding* wait for the store's data is a
                // load interlock; forwarding that shortens the path
                // is not a hazard.
                if (cache_done > pipe_done)
                    path_cause = Cause::DepLoad;
            } else {
                dcache_missed = (ann & kAnnDCacheMiss) != 0;
                cache_done = cache_start + dC;
                if (dcache_missed) {
                    // The miss *event* is counted here at the miss
                    // site, keeping dcache_miss_events in lockstep
                    // with dcache_misses instead of drifting with how
                    // many bubbles the miss later causes.
                    ++res.dcache_misses;
                    ++res.dcache_miss_events;
                    ++res.l2_accesses;
                    cache_done += l2_penalty;
                    if (ann & kAnnDCacheL2Miss) {
                        ++res.l2_misses;
                        cache_done += mem_penalty;
                    }
                    // The op reaches issue late by a constant-time
                    // memory stall.
                    path_cause = Cause::DCacheMiss;
                }
            }
            if (model_memdep && r.is(kReplayStore)) {
                // Data becomes forwardable once the store reaches
                // the cache stage with its operand in hand.
                store_ready[store_seq++] = cache_start;
            }
            if (dC > 0) {
                act(Unit::DCache).add(cache_start, cache_start + dC);
            }
            exec_arrival = cache_done + dEQ;
        } else {
            exec_arrival = dispatch + dEQ;
        }

        // ---- Execute ---------------------------------------------------
        Cycle ecomp;
        // What this instruction's retire bubble will be charged to.
        // Memory ops that complete at the cache carry their arrival
        // path's constraint; exec-path ops refine it at issue below.
        Cause stall_cause = path_cause;
        if (r.is(kReplayStore) || r.opClass() == OpClass::Load) {
            // Stores and pure loads complete at the cache; they do
            // not pass the execution pipe (only RX *ALU* ops do).
            // Load data forwards to consumers straight from the
            // cache.
            ecomp = cache_done;
            if (r.opClass() == OpClass::Load && r.dst != kNoReg) {
                reg_ready[r.dst] = cache_done + 1;
                reg_producer[r.dst] = ProducerKind::Load;
                reg_missed[r.dst] = dcache_missed;
            }
        } else {
            // Operand readiness at issue (program-order issue).
            Cycle ready = 0;
            ProducerKind binding = ProducerKind::None;
            bool binding_missed = false;
            auto need = [&](std::uint8_t reg) {
                if (reg == kNoReg)
                    return;
                if (reg_ready[reg] > ready) {
                    ready = reg_ready[reg];
                    binding = reg_producer[reg];
                    binding_missed = reg_missed[reg];
                }
            };
            need(r.src1);
            need(r.src2);

            const bool is_fp = r.is(kReplayFp);
            const bool unpipelined = r.is(kReplayUnpipelined);
            Cycle busy = 0;
            if (is_fp)
                busy = fpu_busy;
            if (r.opClass() == OpClass::IntDiv)
                busy = std::max(busy, div_busy);

            Cycle eissue;
            if (in_order) {
                const Cycle cand =
                    std::max({ready, busy, exec_arrival, exec_seq});
                eissue = exec_slots.grant(cand);
                exec_seq = eissue;
            } else {
                // Out-of-order: issue as soon as operands and a port
                // are available; program order does not gate issue.
                // The window is still bounded by max_inflight (the
                // ROB) and completion remains in order, which is what
                // lets the ledger attribute retire bubbles the same
                // way as in-order mode (out-of-order mostly shows up
                // as fewer and shorter bubbles, i.e. higher alpha).
                const Cycle cand =
                    std::max({ready, busy, exec_arrival});
                eissue = ooo_ports.grant(cand);
                if (res.instructions % 4096 == 0) {
                    // Cheap low-water pruning: nothing can issue
                    // before the oldest in-flight instruction fetched.
                    ooo_ports.prune(eissue - 8 *
                                    static_cast<Cycle>(
                                        config.max_inflight));
                }
                exec_seq = std::max(exec_seq, eissue);
            }

            // Attribute to the binding issue constraint (the rule the
            // lane-group walk shares, here at width 1).
            stall_cause = static_cast<Cause>(walk::issueCause<Cycle>(
                exec_arrival, ready, busy, static_cast<Cycle>(path_cause),
                static_cast<Cycle>(dep_cause(binding, binding_missed))));
            exec_queue.push(eissue);
            const Cycle entry = is_mem ? cache_done : dispatch;
            act(Unit::ExecQ).add(entry, eissue);

            const int latency = dE + (r.exec_latency - 1);
            ecomp = eissue + latency;
            // Dependents of simple pipelined integer ops see the
            // forwarded result early (see PipelineConfig::fwd_frac);
            // everything else pays the full path.
            Cycle result_ready = ecomp;
            if (!is_fp && !is_mem && !unpipelined) {
                result_ready =
                    eissue + fwd_latency + (r.exec_latency - 1);
            }
            if (is_fp) {
                act(Unit::Fpu).add(eissue, ecomp);
                if (unpipelined)
                    fpu_busy = ecomp;
            } else {
                act(Unit::Fxu).add(eissue, ecomp);
                if (dC == 0 && is_mem) {
                    // Cache access merged into the execute cycle.
                    act(Unit::DCache).add(eissue, ecomp);
                }
                if (unpipelined)
                    div_busy = ecomp;
            }

            if (r.dst != kNoReg) {
                reg_ready[r.dst] = result_ready;
                reg_producer[r.dst] = r.is(kReplayLoad)
                                          ? ProducerKind::Load
                                      : is_fp ? ProducerKind::Fp
                                              : ProducerKind::Int;
                reg_missed[r.dst] = r.is(kReplayLoad) && dcache_missed;
            }
        }

        // ---- Branch resolution ------------------------------------------
        if (r.is(kReplayBranch)) {
            ++res.branches;
            if (ann & kAnnMispredict) {
                ++res.mispredict_events;
                ++res.mispredicts;
                redirect_time = std::max(redirect_time, ecomp + 1);
            } else if (r.is(kReplayTaken)) {
                // Correctly predicted taken branches still break the
                // fetch group (one-bubble redirect through the BTB).
                fetch_seq = std::max(fetch_seq, f + taken_bubble);
            }
        }

        // ---- Complete and retire (in order) ------------------------------
        const Cycle comp = complete_slots.grant(
            std::max(ecomp + 1, complete_seq));
        complete_seq = comp;
        act(Unit::Complete).add(comp, comp + 1);

        const Cycle ret =
            retire_slots.grant(std::max(comp + 1, retire_seq));
        retire_seq = ret;
        act(Unit::Retire).add(ret, ret + 1);
        // The fast path charges the same single bucket; the audited
        // path re-validates the retire-stream preconditions.
        if (audited)
            ledger.commit(ret, stall_cause);
        else
            ledger.commitFast(ret, stall_cause);

        fetch_buffer.push(d);
        inflight.push(ret);
        last_retire = std::max(last_retire, ret);
        ++res.instructions;
    }

    res.cycles = static_cast<std::uint64_t>(last_retire + 1);

    TELEM_SPAN(ledger_span, "ledger.audit");
    ledger_span.tag("workload", replay.name);
    ledger_span.tag("depth", config.depth);
    ledger.finalize(res.cycles);
    res.base_work_cycles = ledger.cycles(StallBucket::BaseWork);
    res.superscalar_loss_cycles =
        ledger.cycles(StallBucket::SuperscalarLoss);
    res.mispredict_stall_cycles = ledger.cycles(StallBucket::Mispredict);
    res.icache_stall_cycles = ledger.cycles(StallBucket::ICache);
    res.dcache_stall_cycles = ledger.cycles(StallBucket::DCacheMiss);
    res.load_interlock_stall_cycles = ledger.cycles(StallBucket::DepLoad);
    res.fp_interlock_stall_cycles = ledger.cycles(StallBucket::DepFp);
    res.int_interlock_stall_cycles = ledger.cycles(StallBucket::DepInt);
    res.unit_busy_stall_cycles = ledger.cycles(StallBucket::UnitBusy);
    res.drain_cycles = ledger.cycles(StallBucket::Drain);
    res.other_stall_cycles = ledger.cycles(StallBucket::Other);
    res.load_interlock_events = ledger.events(StallBucket::DepLoad);
    res.fp_interlock_events = ledger.events(StallBucket::DepFp);
    res.int_interlock_events = ledger.events(StallBucket::DepInt);
    res.ledger_residual = ledger.residual();
    if (config.audit_ledger) {
        PP_ASSERT(res.ledger_residual == 0,
                  "stall ledger conservation violated for '", replay.name,
                  "' at depth ", config.depth, ": residual ",
                  res.ledger_residual);
    }

    for (std::size_t u = 0; u < kNumUnits; ++u) {
        res.units[u].depth = config.unit_depth[u];
        res.units[u].active_cycles = activity[u].active;
        res.units[u].occupancy = activity[u].occupancy;
        res.units[u].ops = activity[u].ops;
    }

    // Per-*run* registry updates only (docs/OBSERVABILITY.md): a few
    // relaxed atomics here cost nothing against the timing walk, but
    // nothing telemetry-related may enter the per-instruction loop.
    static Gauge &residual_gauge =
        MetricsRegistry::instance().gauge("sim.ledger.residual");
    residual_gauge.set(res.ledger_residual);
    return res;
}

} // namespace pipedepth
