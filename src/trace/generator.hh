/**
 * @file
 * Synthetic workload trace generation.
 *
 * The paper uses 55 proprietary trace tapes "carefully selected to
 * accurately reflect the instruction mix, module mix and branch
 * prediction characteristics of the entire application". We cannot
 * ship those, so this generator synthesizes traces with controllable
 * versions of exactly the characteristics the pipeline-depth study is
 * sensitive to:
 *
 *  - instruction mix (loads/stores/ALU/branches/FP, RR vs RX);
 *  - control-flow structure: a static CFG of basic blocks is built
 *    first and then *walked*, so branch-predictor and I-cache
 *    behaviour emerge from real static branches with stable
 *    per-branch statistics rather than from i.i.d. coin flips;
 *  - branch predictability: per-branch behaviour is loop-like,
 *    biased, periodic, or random in configurable proportions;
 *  - memory behaviour: per-static-instruction access styles (hot
 *    stack region, streaming, or uniform over a working set) so
 *    D-cache miss rates follow the working-set size;
 *  - register dependence distances (geometric), which set the
 *    load-use and FP interlock frequencies.
 *
 * Everything is driven by one seeded Rng: the same params produce the
 * same trace on every platform.
 */

#ifndef PIPEDEPTH_TRACE_GENERATOR_HH
#define PIPEDEPTH_TRACE_GENERATOR_HH

#include <cstdint>

#include "trace/replay_buffer.hh"
#include "trace/trace.hh"

namespace pipedepth
{

/** Behavioural parameters of a synthetic workload. */
struct TraceGenParams
{
    std::uint64_t seed = 1;      //!< RNG seed; same seed = same trace
    std::size_t length = 200000; //!< dynamic instructions to emit

    /// @name Instruction mix (fractions of non-branch instructions;
    /// the remainder is plain IntAlu)
    /// @{
    double frac_load = 0.22;
    double frac_store = 0.10;
    double frac_alumem = 0.05; //!< RX ALU ops with a memory operand
    double frac_mul = 0.02;
    double frac_div = 0.003;
    double frac_fp = 0.0;      //!< total FP fraction
    double fp_add_share = 0.45; //!< shares within the FP fraction
    double fp_mul_share = 0.40;
    double fp_div_share = 0.10; //!< remainder of FP goes to FpLong
    /// @}

    /// @name Control flow
    /// @{
    double branch_frac = 0.18;      //!< branches per instruction
    double cond_branch_share = 0.85; //!< conditional share of branches
    int n_blocks = 600;             //!< static basic blocks
    double loop_branch_frac = 0.35; //!< loop-like (strongly taken)
    double periodic_branch_frac = 0.15; //!< pattern (history) branches
    double random_branch_frac = 0.10;   //!< genuinely 50/50 branches
    double bias_margin_min = 0.20;  //!< min |bias-0.5| of biased branches
    /**
     * Probability a biased branch is biased *toward* taken. Dense
     * mostly-taken branches fragment fetch groups (one redirect
     * bubble per taken branch), which lowers the effective
     * superscalar degree without adding depth-scaled hazards —
     * characteristic of legacy assembler code.
     */
    double biased_taken_share = 0.5;
    double backward_frac = 0.40;    //!< taken targets that jump backward
    /// @}

    /// @name Memory behaviour
    /// @{
    std::uint64_t data_working_set = 1ull << 20; //!< bytes
    double hot_frac = 0.45;    //!< stack-like accesses to a 4 KiB region
    double stream_frac = 0.25; //!< sequential streaming accesses
    /**
     * Remaining accesses are uniform within a per-static-instruction
     * region of this size placed inside the working set: static
     * instructions in hot loops keep their region cache-resident
     * (temporal locality), cold ones thrash. Larger regions and
     * larger working sets are more cache-hostile.
     */
    std::uint64_t uniform_region_bytes = 32 * 1024;
    /// @}

    /// @name Register dependences
    /// @{
    double dep_near = 0.55;     //!< P(src is a recent producer)
    double mean_dep_dist = 3.0; //!< geometric mean producer distance
    /// @}

    /**
     * First validation failure as a message naming the offending
     * field ("" when the parameters are usable). NaN and other
     * non-finite values are rejected explicitly — they slip through
     * plain range comparisons. The catalog prefixes this with the
     * workload name at load time.
     */
    std::string validationError() const;

    /** Abort (fatal) on out-of-range parameters. */
    void validate() const;
};

/**
 * Generate a synthetic trace. The generator first builds a static
 * program (blocks, per-branch behaviour, per-instruction memory
 * styles) from the seed, then walks it for params.length dynamic
 * instructions.
 *
 * @param params workload behaviour knobs
 * @param name   workload name stamped into the trace
 */
Trace generateTrace(const TraceGenParams &params, const std::string &name);

/**
 * The same walk as generateTrace, flattened into a replay buffer as
 * it is drawn: what prepareReplay makes of generateTrace(params,
 * name), without ever holding the trace's records.
 */
ReplayBuffer generateReplay(const TraceGenParams &params,
                            const std::string &name);

} // namespace pipedepth

#endif // PIPEDEPTH_TRACE_GENERATOR_HH
