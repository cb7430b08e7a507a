/**
 * @file
 * Trace-driven cycle-accurate simulation of the Fig. 2 pipeline.
 *
 * The engine is an exact timestamp walk of the in-order machine:
 * instructions are processed in trace (= program = fetch) order and
 * every pipeline constraint is applied as a lower bound on the cycle
 * at which each instruction passes each stage:
 *
 *  - per-stage width limits (at most `width` grants per cycle);
 *  - buffer capacities (fetch buffer, Agen Q, Exec Q, in-flight
 *    window) with exact backpressure;
 *  - register dependences through a scoreboard (results available at
 *    the end of the producing unit's pipe, so dependence stalls grow
 *    with depth — the paper's requirement that "all hazards see
 *    pipeline increases");
 *  - strict program-order issue (the in-order model);
 *  - branch redirects: a mispredicted branch blocks all younger
 *    fetches until it resolves at the end of execution;
 *  - I-cache and D-cache misses with a miss penalty that is constant
 *    in absolute time (and therefore grows in cycles as the pipeline
 *    deepens and the clock speeds up);
 *  - unpipelined execution of FP ops and integer divides ("floating
 *    point instructions ... execute individually and take multiple
 *    cycles").
 *
 * For an in-order machine this timestamp formulation is equivalent to
 * a stage-by-stage cycle loop (each constraint binds exactly when the
 * corresponding structural or data hazard binds) but runs at tens of
 * millions of instructions per second, which is what makes the 55
 * workloads x 24 depths sweeps of the paper's Figs. 6/7 practical.
 *
 * Per-unit activity (distinct busy cycles) is recorded for the
 * clock-gated power model; stall cycles are attributed to hazard
 * classes for the theory-parameter extraction of Sec. 4.
 *
 * The walk itself is the one simulateMultiDepth() runs
 * (multi_depth_walk.hh): simulate() is its 1-lane instantiation, so
 * one depth and many depths apply exactly the same constraints.
 */

#ifndef PIPEDEPTH_UARCH_SIMULATOR_HH
#define PIPEDEPTH_UARCH_SIMULATOR_HH

#include "trace/replay_buffer.hh"
#include "trace/trace.hh"
#include "uarch/pipeline_config.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/sim_result.hh"

namespace pipedepth
{

/**
 * The hot entry point: the pure timing walk over a prepared replay
 * buffer and its precomputed microarchitectural outcomes. Callers
 * sweeping one workload over many depths should build the buffer
 * (WorkloadSpec::makeReplay, or prepareReplay() of a Trace) and
 * annotateReplay() once and reuse both across configurations (both
 * are read-only here; the annotations must match @p config's
 * microarchitectural key). Byte-identical to the Trace overload.
 */
SimResult simulate(const ReplayBuffer &replay,
                   const ReplayAnnotations &annotations,
                   const PipelineConfig &config);

/** Annotate @p replay for @p config, then run the timing walk. */
SimResult simulate(const ReplayBuffer &replay,
                   const PipelineConfig &config);

/** Convenience: prepare a replay of @p trace and simulate it. */
SimResult simulate(const Trace &trace, const PipelineConfig &config);

/** Convenience: simulate at a given depth with default configuration. */
SimResult simulateAtDepth(const Trace &trace, int depth,
                          bool in_order = true);

} // namespace pipedepth

#endif // PIPEDEPTH_UARCH_SIMULATOR_HH
