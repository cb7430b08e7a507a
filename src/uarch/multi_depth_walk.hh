/**
 * @file
 * Fused multi-depth timing walk: one pass, every depth.
 *
 * A depth sweep runs the same replay buffer under ~24 configurations
 * that differ only in pipeline depth. The per-depth walk
 * (simulator.hh) streams the buffer once per configuration, so the
 * sweep reads the same 24-byte ReplayOp records 24 times and spends
 * most of its time in a serial dependency chain (each instruction's
 * timestamps feed the next instruction's).
 *
 * simulateMultiDepth() streams the buffer *once* and advances the
 * timing state of all requested depths per instruction. Per-depth
 * state is struct-of-arrays — every timestamp array is contiguous
 * across depths — so the inner depth loop walks consecutive memory,
 * and because the depths are mutually independent the loop carries no
 * dependency between iterations: the hardware overlaps ~D dependency
 * chains where the scalar walk exposes one. Everything derivable from
 * the replay op and its annotations alone (instruction class, cache
 * and predictor outcomes, event counters) is computed once per
 * instruction instead of once per (instruction, depth).
 *
 * SweepEngine picks the kernel from what it can see: a group of two
 * or more cache misses that canFuseConfigs() accepts takes this walk;
 * a lone miss, an unfusable set and every fault-injection run take
 * the 1-lane simulate().
 *
 * The proof obligation is byte-identity: for each config, the
 * returned SimResult must serialize to exactly the bytes the
 * per-depth walk produces. This is pinned four ways — the golden
 * hash table (tests/sweep/golden_sim_hashes.inc, including
 * ledger-bucket hashes), the randomized differential oracle
 * (tests/uarch/test_multi_depth_walk.cc), the engine test that runs
 * one grid through runGrid, runConfigs and a direct simulate()
 * (tests/sweep/test_engine_determinism.cc), and the shared
 * walk-state primitives (walk_state.hh). The sweep cache key is
 * deliberately NOT bumped: fused and per-depth results are
 * interchangeable cache entries.
 *
 * See docs/PERFORMANCE.md ("Fused multi-depth walk") for the layout
 * diagram and measured speedups.
 */

#ifndef PIPEDEPTH_UARCH_MULTI_DEPTH_WALK_HH
#define PIPEDEPTH_UARCH_MULTI_DEPTH_WALK_HH

#include <vector>

#include "trace/replay_buffer.hh"
#include "uarch/pipeline_config.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/sim_result.hh"

namespace pipedepth
{

/**
 * Can this configuration set be fused into one walk? True when every
 * config shares the machine *structure* — width, agen width, queue
 * and window capacities, issue discipline and the memory-dependence
 * switch — so the fused walk's shared ring cursors and event schedule
 * are valid for all of them. Depth, unit allocation, latencies and
 * technology parameters may differ freely (that is the point).
 * A single config or an empty set is trivially fusable.
 */
bool canFuseConfigs(const std::vector<PipelineConfig> &configs);

/**
 * Simulate @p replay under every configuration in @p configs in one
 * streaming pass, returning one SimResult per config in input order.
 *
 * Requirements (all fatal when violated): a non-empty replay buffer,
 * canFuseConfigs(configs), and @p annotations matching every config
 * (one annotation set serves all depths — annotations are
 * depth-invariant by construction, see replay_annotations.hh).
 *
 * Byte-identity guarantee: result[i] serializes to exactly
 * serializeSimResult(simulate(replay, annotations, configs[i])).
 */
std::vector<SimResult>
simulateMultiDepth(const ReplayBuffer &replay,
                   const ReplayAnnotations &annotations,
                   const std::vector<PipelineConfig> &configs);

} // namespace pipedepth

#endif // PIPEDEPTH_UARCH_MULTI_DEPTH_WALK_HH
