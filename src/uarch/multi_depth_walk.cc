#include "uarch/multi_depth_walk.hh"

#include <algorithm>
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
 * Struct-of-arrays twin of walk::SlotRing for D fused depths. The
 * slot values of all depths for one ring position are contiguous
 * (`times_[slot * D + j]`), and the cursor is *shared*: every depth
 * grants the same sequence of slot events (the grant schedule is
 * driven by the replay stream, which is depth-invariant), so one
 * cursor advance per event serves all depths. grant() does not
 * advance — the walk advances each ring exactly once per event, after
 * the depth loop.
 */
class SlotRingSoA
{
  public:
    SlotRingSoA(int width, std::size_t depths)
        : depths_(depths),
          slots_(static_cast<std::size_t>(width)),
          times_(slots_ * depths, -1)
    {
        PP_ASSERT(width >= 1, "width must be positive");
    }

    Cycle
    grant(std::size_t j, Cycle candidate)
    {
        Cycle &slot = times_[idx_ * depths_ + j];
        const Cycle t = std::max(candidate, slot + 1);
        slot = t;
        return t;
    }

    void
    advance()
    {
        if (++idx_ == slots_)
            idx_ = 0;
    }

  private:
    std::size_t depths_;
    std::size_t slots_;
    std::vector<Cycle> times_;
    std::size_t idx_ = 0;
};

/**
 * Struct-of-arrays twin of walk::CapacityRing, same shared-cursor
 * discipline: entryOk() never advances (exactly like the scalar
 * ring), push() writes without advancing, and the walk calls
 * advance() once per admission event after the depth loop.
 */
class CapacityRingSoA
{
  public:
    CapacityRingSoA(int capacity, std::size_t depths)
        : depths_(depths),
          slots_(static_cast<std::size_t>(capacity)),
          exits_(slots_ * depths, -1)
    {
        PP_ASSERT(capacity >= 1, "capacity must be positive");
    }

    Cycle
    entryOk(std::size_t j, Cycle candidate) const
    {
        return std::max(candidate, exits_[idx_ * depths_ + j] + 1);
    }

    void
    push(std::size_t j, Cycle exit_time)
    {
        exits_[idx_ * depths_ + j] = exit_time;
    }

    void
    advance()
    {
        if (++idx_ == slots_)
            idx_ = 0;
    }

  private:
    std::size_t depths_;
    std::size_t slots_;
    std::vector<Cycle> exits_;
    std::size_t idx_ = 0;
};

/**
 * The depth-dependent pipeline parameters of one fused
 * configuration, pre-resolved once so the per-instruction depth loop
 * reads plain integers. Mirrors the hoisted constants at the top of
 * simulate() — same names, same derivations.
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

} // namespace

bool
canFuseConfigs(const std::vector<PipelineConfig> &configs)
{
    if (configs.size() <= 1)
        return true;
    const PipelineConfig &a = configs.front();
    for (std::size_t k = 1; k < configs.size(); ++k) {
        const PipelineConfig &c = configs[k];
        if (c.width != a.width || c.agen_width != a.agen_width ||
            c.in_order != a.in_order ||
            c.fetch_buffer != a.fetch_buffer ||
            c.agen_queue != a.agen_queue ||
            c.exec_queue != a.exec_queue ||
            c.max_inflight != a.max_inflight ||
            c.model_memory_dependences != a.model_memory_dependences) {
            return false;
        }
    }
    return true;
}

std::vector<SimResult>
simulateMultiDepth(const ReplayBuffer &replay,
                   const ReplayAnnotations &annotations,
                   const std::vector<PipelineConfig> &configs)
{
    if (configs.empty())
        return {};
    if (replay.empty())
        PP_FATAL("cannot simulate an empty trace");
    PP_ASSERT(canFuseConfigs(configs),
              "configurations are not fusable into one walk");
    annotations.validateFor(replay);
    for (const PipelineConfig &config : configs) {
        config.validate();
        PP_ASSERT(annotations.matches(config, replay.size()),
                  "replay annotations do not match a fused configuration");
    }

    const std::size_t D = configs.size();
    const PipelineConfig &shape = configs.front();
    const int width = shape.width;
    const bool in_order = shape.in_order;
    const bool model_memdep = shape.model_memory_dependences;
    const Cycle inflight_window = static_cast<Cycle>(shape.max_inflight);

    std::vector<DepthParams> params;
    params.reserve(D);
    for (const PipelineConfig &config : configs)
        params.push_back(paramsOf(config));

    SlotRingSoA fetch_slots(width, D);
    SlotRingSoA decode_slots(width, D);
    SlotRingSoA agen_slots(shape.agen_width, D);
    SlotRingSoA exec_slots(width, D);
    SlotRingSoA complete_slots(width, D);
    SlotRingSoA retire_slots(width, D);

    CapacityRingSoA fetch_buffer(shape.fetch_buffer, D);
    CapacityRingSoA agen_queue(shape.agen_queue, D);
    CapacityRingSoA exec_queue(shape.exec_queue, D);
    CapacityRingSoA inflight(shape.max_inflight, D);

    // Out-of-order issue ports keep per-cycle counts in a map, so
    // they stay per-depth objects rather than SoA arrays.
    std::vector<IssuePorts> ooo_ports;
    if (!in_order)
        ooo_ports.assign(D, IssuePorts(width));

    // Register scoreboard, stride-D: all depths' views of one
    // register are contiguous.
    const std::size_t regs = static_cast<std::size_t>(kNumRegs);
    std::vector<Cycle> reg_ready(regs * D, 0);
    std::vector<ProducerKind> reg_producer(regs * D, ProducerKind::None);
    std::vector<std::uint8_t> reg_missed(regs * D, 0);

    std::vector<Activity> activity(kNumUnits * D);
    auto act = [&activity, D](Unit u, std::size_t j) -> Activity & {
        return activity[static_cast<std::size_t>(u) * D + j];
    };

    // Stride-D store data-ready table; the store sequence numbering
    // is depth-invariant, so one shared counter indexes it.
    std::vector<Cycle> store_ready(
        static_cast<std::size_t>(annotations.num_stores) * D, 0);
    std::uint32_t store_seq = 0;

    std::vector<Cycle> fetch_seq(D, 0);
    std::vector<Cycle> decode_seq(D, 0);
    std::vector<Cycle> agen_seq(D, 0);
    std::vector<Cycle> exec_seq(D, 0);
    std::vector<Cycle> complete_seq(D, 0);
    std::vector<Cycle> retire_seq(D, 0);
    std::vector<Cycle> redirect_time(D, 0);
    std::vector<Cycle> fpu_busy(D, 0);
    std::vector<Cycle> div_busy(D, 0);
    std::vector<Cycle> last_retire(D, 0);

    std::vector<StallLedger> ledgers;
    ledgers.reserve(D);
    for (std::size_t j = 0; j < D; ++j)
        ledgers.emplace_back(width);

    // Depth-invariant event counters: pure functions of the replay op
    // and its annotation byte, accumulated once per instruction and
    // copied into every depth's result at the end.
    std::uint64_t c_branches = 0;
    std::uint64_t c_mispredicts = 0;
    std::uint64_t c_icache_misses = 0;
    std::uint64_t c_dcache_accesses = 0;
    std::uint64_t c_dcache_misses = 0;
    std::uint64_t c_l2_accesses = 0;
    std::uint64_t c_l2_misses = 0;

    const std::size_t n_ops = replay.size();
    for (std::size_t i = 0; i < n_ops; ++i) {
        const ReplayOp &r = replay.ops[i];
        const std::uint8_t ann = annotations.flags[i];
        const bool is_mem = r.is(kReplayMem);
        const bool is_store = r.is(kReplayStore);
        const bool is_load_op = r.is(kReplayLoad);
        const bool pure_load = r.opClass() == OpClass::Load;
        const bool cache_completes = is_store || pure_load;
        const bool is_branch = r.is(kReplayBranch);
        const bool is_fp = r.is(kReplayFp);
        const bool unpipelined = r.is(kReplayUnpipelined);
        const bool is_intdiv = r.opClass() == OpClass::IntDiv;
        const bool forwarded = (ann & kAnnForwarded) != 0;
        const bool dcache_missed =
            is_mem && !forwarded && (ann & kAnnDCacheMiss) != 0;
        const std::size_t fwd_base =
            forwarded
                ? static_cast<std::size_t>(annotations.fwd_store[i]) * D
                : 0;

        if (ann & kAnnICacheMiss) {
            ++c_icache_misses;
            ++c_l2_accesses;
            if (ann & kAnnICacheL2Miss)
                ++c_l2_misses;
        }
        if (is_mem) {
            ++c_dcache_accesses;
            if (dcache_missed) {
                ++c_dcache_misses;
                ++c_l2_accesses;
                if (ann & kAnnDCacheL2Miss)
                    ++c_l2_misses;
            }
        }
        if (is_branch) {
            ++c_branches;
            if (ann & kAnnMispredict)
                ++c_mispredicts;
        }

        // The depth loop: the exact per-instruction body of
        // simulate(), with depth-j state where the reference walk has
        // scalars. The iterations are mutually independent — no value
        // computed for depth j feeds depth j+1 — which is what lets
        // the hardware overlap the D dependency chains.
        for (std::size_t j = 0; j < D; ++j) {
            const DepthParams &p = params[j];
            StallBucket path_cause = StallBucket::Other;

            // ---- Fetch ------------------------------------------------
            Cycle f_base = fetch_seq[j];
            f_base = fetch_buffer.entryOk(j, f_base);
            f_base = inflight.entryOk(j, f_base);
            if (redirect_time[j] > f_base) {
                f_base = redirect_time[j];
                path_cause = StallBucket::Mispredict;
            }
            Cycle f = fetch_slots.grant(j, f_base);
            if (ann & kAnnICacheMiss) {
                f += p.l2_penalty;
                if (ann & kAnnICacheL2Miss)
                    f += p.mem_penalty;
                path_cause = StallBucket::ICache;
            }
            act(Unit::Fetch, j).add(f, f + 1);
            fetch_seq[j] = f;

            // ---- Decode (+ Rename when present) -----------------------
            const Cycle d =
                decode_slots.grant(j, std::max(f + 1, decode_seq[j]));
            decode_seq[j] = d;
            const Cycle de = d + p.dD + p.dRN;

            // ---- Dispatch with queue backpressure ---------------------
            Cycle dispatch;
            if (is_mem) {
                dispatch = agen_queue.entryOk(j, de);
            } else {
                dispatch = exec_queue.entryOk(j, de);
            }
            act(Unit::Decode, j).add(d, std::max(de, dispatch));
            if (p.dRN > 0)
                act(Unit::Rename, j).add(d + p.dD, de);

            Cycle exec_arrival;
            Cycle cache_done = 0;

            if (is_mem) {
                // ---- Agen Q -> Agen -> Cache Access -------------------
                const Cycle base_ready =
                    r.src3 != kNoReg
                        ? reg_ready[static_cast<std::size_t>(r.src3) * D + j]
                        : 0;
                Cycle a_cand = std::max(dispatch + p.dAQ, agen_seq[j]);
                if (base_ready > a_cand) {
                    a_cand = base_ready;
                    if (r.src3 != kNoReg) {
                        const std::size_t ri =
                            static_cast<std::size_t>(r.src3) * D + j;
                        path_cause = walk::depCause(reg_producer[ri],
                                                    reg_missed[ri] != 0);
                    }
                }
                const Cycle aissue = agen_slots.grant(j, a_cand);
                agen_seq[j] = aissue;
                agen_queue.push(j, aissue);
                act(Unit::AgenQ, j).add(dispatch, aissue);
                const Cycle agen_done = aissue + p.dA;
                if (p.dA > 0) {
                    act(Unit::Agen, j).add(aissue, agen_done);
                } else {
                    // Agen merged into decode: logic shares those cycles.
                    act(Unit::Agen, j).add(d, de);
                }

                // Stores must have their data by the cache access.
                Cycle cache_start = agen_done;
                if (is_store && r.src1 != kNoReg) {
                    const std::size_t ri =
                        static_cast<std::size_t>(r.src1) * D + j;
                    if (reg_ready[ri] > cache_start) {
                        cache_start = reg_ready[ri];
                        path_cause = walk::depCause(reg_producer[ri],
                                                    reg_missed[ri] != 0);
                    }
                }

                if (forwarded) {
                    const Cycle st = store_ready[fwd_base + j];
                    const Cycle pipe_done = cache_start + p.dC;
                    cache_done = std::max(pipe_done, st + 1);
                    if (cache_done > pipe_done)
                        path_cause = StallBucket::DepLoad;
                } else {
                    cache_done = cache_start + p.dC;
                    if (dcache_missed) {
                        cache_done += p.l2_penalty;
                        if (ann & kAnnDCacheL2Miss)
                            cache_done += p.mem_penalty;
                        path_cause = StallBucket::DCacheMiss;
                    }
                }
                if (model_memdep && is_store) {
                    store_ready[static_cast<std::size_t>(store_seq) * D +
                                j] = cache_start;
                }
                if (p.dC > 0) {
                    act(Unit::DCache, j)
                        .add(cache_start, cache_start + p.dC);
                }
                exec_arrival = cache_done + p.dEQ;
            } else {
                exec_arrival = dispatch + p.dEQ;
            }

            // ---- Execute ----------------------------------------------
            Cycle ecomp;
            StallBucket stall_cause = path_cause;
            if (cache_completes) {
                ecomp = cache_done;
                if (pure_load && r.dst != kNoReg) {
                    const std::size_t di =
                        static_cast<std::size_t>(r.dst) * D + j;
                    reg_ready[di] = cache_done + 1;
                    reg_producer[di] = ProducerKind::Load;
                    reg_missed[di] = dcache_missed ? 1 : 0;
                }
            } else {
                Cycle ready = 0;
                ProducerKind binding = ProducerKind::None;
                bool binding_missed = false;
                auto need = [&](std::uint8_t reg) {
                    if (reg == kNoReg)
                        return;
                    const std::size_t ri =
                        static_cast<std::size_t>(reg) * D + j;
                    if (reg_ready[ri] > ready) {
                        ready = reg_ready[ri];
                        binding = reg_producer[ri];
                        binding_missed = reg_missed[ri] != 0;
                    }
                };
                need(r.src1);
                need(r.src2);

                Cycle busy = 0;
                if (is_fp)
                    busy = fpu_busy[j];
                if (is_intdiv)
                    busy = std::max(busy, div_busy[j]);

                Cycle eissue;
                if (in_order) {
                    const Cycle cand =
                        std::max({ready, busy, exec_arrival, exec_seq[j]});
                    eissue = exec_slots.grant(j, cand);
                    exec_seq[j] = eissue;
                } else {
                    const Cycle cand =
                        std::max({ready, busy, exec_arrival});
                    eissue = ooo_ports[j].grant(cand);
                    if (i % 4096 == 0)
                        ooo_ports[j].prune(eissue - 8 * inflight_window);
                    exec_seq[j] = std::max(exec_seq[j], eissue);
                }

                if (exec_arrival >= std::max(ready, busy)) {
                    stall_cause = path_cause;
                } else if (ready >= busy) {
                    stall_cause = walk::depCause(binding, binding_missed);
                } else {
                    stall_cause = StallBucket::UnitBusy;
                }
                exec_queue.push(j, eissue);
                const Cycle entry = is_mem ? cache_done : dispatch;
                act(Unit::ExecQ, j).add(entry, eissue);

                const int latency = p.dE + (r.exec_latency - 1);
                ecomp = eissue + latency;
                Cycle result_ready = ecomp;
                if (!is_fp && !is_mem && !unpipelined) {
                    result_ready =
                        eissue + p.fwd_latency + (r.exec_latency - 1);
                }
                if (is_fp) {
                    act(Unit::Fpu, j).add(eissue, ecomp);
                    if (unpipelined)
                        fpu_busy[j] = ecomp;
                } else {
                    act(Unit::Fxu, j).add(eissue, ecomp);
                    if (p.dC == 0 && is_mem) {
                        // Cache access merged into the execute cycle.
                        act(Unit::DCache, j).add(eissue, ecomp);
                    }
                    if (unpipelined)
                        div_busy[j] = ecomp;
                }

                if (r.dst != kNoReg) {
                    const std::size_t di =
                        static_cast<std::size_t>(r.dst) * D + j;
                    reg_ready[di] = result_ready;
                    reg_producer[di] = is_load_op ? ProducerKind::Load
                                       : is_fp   ? ProducerKind::Fp
                                                 : ProducerKind::Int;
                    reg_missed[di] = (is_load_op && dcache_missed) ? 1 : 0;
                }
            }

            // ---- Branch resolution ------------------------------------
            if (is_branch) {
                if (ann & kAnnMispredict) {
                    redirect_time[j] =
                        std::max(redirect_time[j], ecomp + 1);
                } else if (r.is(kReplayTaken)) {
                    fetch_seq[j] =
                        std::max(fetch_seq[j], f + p.taken_bubble);
                }
            }

            // ---- Complete and retire (in order) -----------------------
            const Cycle comp = complete_slots.grant(
                j, std::max(ecomp + 1, complete_seq[j]));
            complete_seq[j] = comp;
            act(Unit::Complete, j).add(comp, comp + 1);

            const Cycle ret = retire_slots.grant(
                j, std::max(comp + 1, retire_seq[j]));
            retire_seq[j] = ret;
            act(Unit::Retire, j).add(ret, ret + 1);
            if (p.audited)
                ledgers[j].commit(ret, stall_cause);
            else
                ledgers[j].commitFast(ret, stall_cause);

            fetch_buffer.push(j, d);
            inflight.push(j, ret);
            last_retire[j] = std::max(last_retire[j], ret);
        }

        // One cursor advance per ring event, shared by all depths.
        // The event schedule is depth-invariant: which rings an
        // instruction touches depends only on its replay flags, never
        // on timing (canFuseConfigs() guarantees uniform widths and
        // capacities, so the cursors stay in lockstep by design).
        fetch_slots.advance();
        decode_slots.advance();
        complete_slots.advance();
        retire_slots.advance();
        fetch_buffer.advance();
        inflight.advance();
        if (is_mem) {
            agen_slots.advance();
            agen_queue.advance();
        }
        if (!cache_completes) {
            exec_queue.advance();
            if (in_order)
                exec_slots.advance();
        }
        if (model_memdep && is_store)
            ++store_seq;
    }

    std::vector<SimResult> results(D);
    static Counter &run_counter =
        MetricsRegistry::instance().counter("sim.run.complete");
    static Counter &op_counter =
        MetricsRegistry::instance().counter("sim.instructions.replay");
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
            res.units[u].depth = config.unit_depth[u];
            res.units[u].active_cycles = activity[u * D + j].active;
            res.units[u].occupancy = activity[u * D + j].occupancy;
            res.units[u].ops = activity[u * D + j].ops;
        }

        // Per-run registry updates, once per fused depth, matching
        // what D reference runs would have recorded.
        run_counter.add();
        op_counter.add(res.instructions);
        residual_gauge.set(res.ledger_residual);
    }
    return results;
}

} // namespace pipedepth
