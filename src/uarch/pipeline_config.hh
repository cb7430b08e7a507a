/**
 * @file
 * Pipeline structure configuration and uniform depth scaling.
 *
 * The modeled pipeline is the paper's Fig. 2: a 4-issue superscalar
 * machine with two instruction flow paths,
 *
 *   RR:  Decode -> [Rename] -> Exec Q -> E-unit -> Complete -> Retire
 *   RX:  Decode -> [Rename] -> Agen Q -> Agen -> Cache Access ->
 *        Exec Q -> E-unit -> Complete -> Retire
 *
 * The "pipeline depth" p is measured from the beginning of Decode to
 * the end of execution along the RX path, as in the paper. forDepth
 * scales it by two tables in pipeline_config.cc, following the paper:
 *
 *  - allocation: the depths of Decode, AgenQ, Agen, DCache, ExecQ and
 *    the E-unit at 2..6 allocated stages (p, or p - 1 out of order).
 *    Contraction folds the queues into zero-cycle bypasses first,
 *    then combines distinct units onto one cycle;
 *  - policy: each ExpansionPolicy's insertion cycle, whose units take
 *    the stages past 6 in turn. The paper's Uniform cycle inserts in
 *    Decode, Cache Access and the E-unit pipe *simultaneously*.
 *
 * A zero depth is the only record that a unit shares a cycle: AgenQ
 * and Agen ride on Decode, ExecQ on DCache, and a stage-less DCache
 * (with ExecQ) on the E-unit. The power model charges the max of such
 * a group, "the intervening latches can be eliminated".
 */

#ifndef PIPEDEPTH_UARCH_PIPELINE_CONFIG_HH
#define PIPEDEPTH_UARCH_PIPELINE_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "cache/cache.hh"

namespace pipedepth
{

/** Microarchitectural units of the modeled pipeline. */
enum class Unit : std::uint8_t
{
    Fetch,
    Decode,
    Rename,   //!< out-of-order configurations only
    AgenQ,
    Agen,
    DCache,
    ExecQ,
    Fxu,      //!< fixed-point (integer) execution pipe
    Fpu,      //!< floating-point unit (unpipelined ops)
    Complete,
    Retire,
    NumUnits,
};

constexpr std::size_t kNumUnits = static_cast<std::size_t>(Unit::NumUnits);

/** Unit name for reports. */
std::string unitName(Unit unit);

/**
 * Where extra stages go when the pipeline is expanded beyond the base
 * 6-stage allocation. The paper inserts "extra stages in Decode,
 * Cache Access and E-Unit Pipe, simultaneously" (Uniform); the other
 * policies are ablations that concentrate the growth in one unit and
 * therefore expose only one hazard class to the depth increase.
 */
enum class ExpansionPolicy
{
    Uniform,     //!< round-robin Decode/Cache/Exec (the paper)
    DecodeHeavy, //!< all extra stages in Decode (front end)
    CacheHeavy,  //!< all extra stages in Cache Access
    ExecHeavy,   //!< all extra stages in the E-unit pipe
};

/** Policy name for reports. */
std::string toString(ExpansionPolicy policy);

/** Full machine configuration at one pipeline depth. */
struct PipelineConfig
{
    int depth = 6;   //!< p: decode..execute depth along the RX path
    int width = 4;   //!< superscalar width (fetch/decode/issue/retire)
    int agen_width = 2;  //!< address generations per cycle
    bool in_order = true;

    /** Cycles spent in each unit (0 = rides on a host, or absent). */
    std::array<int, kNumUnits> unit_depth{};

    /// @name Buffering
    /// @{
    int fetch_buffer = 12;  //!< fetch/decode decoupling entries
    int agen_queue = 10;    //!< Agen Q capacity
    int exec_queue = 12;    //!< Exec Q capacity
    int max_inflight = 64;  //!< fetch-to-retire window
    /// @}

    /**
     * Instructions replayed through the predictor and caches before
     * timing starts, emulating the history a long-running application
     * would have accumulated (trace tapes are windows into much
     * longer executions). Timing and statistics cover the whole
     * trace; only the structures are warm.
     */
    std::size_t warmup_instructions = 0;

    /**
     * Model store-to-load memory dependences: a load whose dword was
     * written by a recent in-flight store receives its data through
     * the store-forwarding path (one extra cycle after the store's
     * data is available) instead of from the cache. Off by default —
     * the paper's hazard taxonomy does not include memory
     * disambiguation, and the synthetic traces make such collisions
     * rare; the knob exists for sensitivity studies.
     */
    bool model_memory_dependences = false;

    /**
     * Hard-fail (panic) if the stall ledger's cycle-conservation
     * invariant does not hold at end of simulation, instead of merely
     * exporting the residual in SimResult::ledger_residual. Enabled
     * by tests and by `pipesim --audit`. Not part of the sweep cache
     * key: auditing cannot change a (successful) run's results.
     */
    bool audit_ledger = false;

    /// @name Technology
    /// @{
    double t_p = 140.0; //!< total logic depth, FO4
    double t_o = 2.5;   //!< latch overhead per stage, FO4
    double l2_latency_fo4 = 120.0;  //!< L2 hit latency (constant in
                                    //!< absolute time)
    double mem_latency_fo4 = 800.0; //!< off-chip miss latency (constant
                                    //!< in absolute time)
    /**
     * Fraction of the execute pipe on the dependence-critical path.
     * Deepening the E-unit stretches register read, flag and
     * writeback logic as well as the ALU core, so the latency a
     * *dependent* integer op observes grows slower than the full pipe
     * depth; loads, FP and multi-cycle ops pay the full path.
     */
    double fwd_frac = 0.35;
    /// @}

    CacheConfig icache{64 * 1024, 128, 4};
    CacheConfig dcache{256 * 1024, 128, 4};
    CacheConfig l2cache{4 * 1024 * 1024, 256, 8};
    /**
     * Bimodal by default: per-branch counters match the stable
     * per-branch statistics of both real traces and our synthetic
     * ones; gshare's global history buys little on commercial-style
     * control flow and is available for comparison studies.
     */
    PredictorKind predictor = PredictorKind::Bimodal;

    /** Cycle time t_s = t_o + t_p/p in FO4. */
    double cycleTime() const;

    /** L2 hit penalty in cycles at this depth (>= 1). */
    int l2PenaltyCycles() const;

    /** Off-chip miss penalty in cycles at this depth (>= 1). */
    int missPenaltyCycles() const;

    /**
     * Cycles a dependent integer ALU op waits on its producer when
     * the execute pipe is @p exec_depth stages deep (>= 1).
     */
    int forwardLatency(int exec_depth) const;

    /** Taken-branch fetch redirect bubble in cycles (>= 1). */
    int takenBranchBubble() const;

    /**
     * Build the configuration for a target decode..execute depth p in
     * [2, 30], applying the expansion/contraction rules above.
     *
     * @param p        target decode..execute depth
     * @param in_order in-order (paper default) or out-of-order issue
     * @param policy   where extra stages go during expansion
     */
    static PipelineConfig
    forDepth(int p, bool in_order = true,
             ExpansionPolicy policy = ExpansionPolicy::Uniform);

    /**
     * The units that share a cycle, host first, read off zero depths
     * as the timing walk reads them (file comment).
     */
    std::vector<std::vector<Unit>> mergeGroups() const;

    /** Sum of unit depths along the RX path (must equal depth). */
    int rxPathDepth() const;

    /** Abort (fatal) on inconsistent configuration. */
    void validate() const;
};

} // namespace pipedepth

#endif // PIPEDEPTH_UARCH_PIPELINE_CONFIG_HH
