/**
 * @file
 * The multi-depth timing walk: one pass, every depth.
 *
 * A depth sweep runs the same replay buffer under ~24 configurations
 * that differ only in pipeline depth. simulateMultiDepth() streams the
 * buffer once and advances the timing state of every requested depth
 * — one *lane* per configuration — at each instruction. The lanes are
 * mutually independent, so the hardware overlaps their dependency
 * chains where a one-depth walk exposes one, and everything derivable
 * from the replay op and its annotations alone (instruction class,
 * cache and predictor outcomes, event counters) is computed once per
 * instruction instead of once per (instruction, depth).
 *
 * src/uarch has one timing walk: a kernel templated on its lane count
 * D and its lane-group width W (multi_depth_walk.cc). Every per-lane
 * value is a W-wide vector of int64 cycle stamps, every lane-dependent
 * branch a select, so one instruction of the host CPU advances W
 * depths; the group loop runs D / W times per instruction, while op
 * decode, ring cursors and event counters stay once per instruction.
 * D is compiled for 1, 2, 4, 8 and 24: 1 is simulate(), 4 the golden
 * depths and the groups a multi-threaded one-workload sweep forms, 24
 * the catalog grid's depths 2..25. Any other count splits greedily,
 * largest part first (29 = 24 + 4 + 1), one pass over the replay per
 * part. W is 1 for every D; 4 (AVX2) for 4, 8 and 24; and 8
 * (AVX-512F) for 8 and 24. The walk picks the widest the CPU runs,
 * once per process, so a CPU without AVX2 or a non-x86 build runs
 * width 1 throughout, with the same bytes.
 *
 * simulateMultiDepth() takes any configuration list and splits it
 * into *walk classes*: configurations that canFuseConfigs() accepts
 * and that share one MicroarchKey (replay_annotations.hh). Each class
 * is one pass over the replay; a depth sweep is one class. It is the
 * SweepEngine's only route to the walk, for a lone cache miss and a
 * whole group alike, fault-injected runs included.
 *
 * The proof obligation is byte-identity: result[i] serializes to
 * exactly the bytes of simulate(replay, annotations, configs[i]), and
 * both to the bytes of the scalar walk the template replaced, at every
 * width. This is pinned by the golden hash table
 * (tests/sweep/golden_sim_hashes.inc, including ledger-bucket hashes),
 * the differential oracle (tests/uarch/test_multi_depth_walk.cc
 * against that scalar walk in tests/uarch/reference_walk.cc, at every
 * compiled lane count, one that splits, and every width the CPU runs),
 * the engine test that runs one grid through runGrid, runConfigs and a
 * direct simulate() (tests/sweep/test_engine_determinism.cc), and
 * sim_golden_dump's per-cell cross-check. The sweep cache key is
 * deliberately NOT bumped: results of any lane count or width are
 * interchangeable cache entries.
 *
 * See docs/PERFORMANCE.md ("One timing walk, compiled per lane
 * count") for the lane-group layout, the width rule and measured
 * speed.
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
 * Simulate @p replay under every configuration in @p configs,
 * returning one SimResult per config in input order. Each walk class
 * (see above) streams the replay once per compiled lane group.
 *
 * @p annotations serve every class whose key they match (annotations
 * are depth-invariant by construction, see replay_annotations.hh); a
 * class they do not match is annotated once, here. Requirements (all
 * fatal when violated): a non-empty replay buffer, @p annotations
 * covering it (ReplayAnnotations::validateFor) and valid configs.
 *
 * Byte-identity guarantee: result[i] serializes to exactly
 * serializeSimResult(simulate(replay, configs[i])).
 */
std::vector<SimResult>
simulateMultiDepth(const ReplayBuffer &replay,
                   const ReplayAnnotations &annotations,
                   const std::vector<PipelineConfig> &configs);

} // namespace pipedepth

#endif // PIPEDEPTH_UARCH_MULTI_DEPTH_WALK_HH
