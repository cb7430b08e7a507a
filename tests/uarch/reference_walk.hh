/**
 * @file
 * The reference timing walk: the differential oracle for the
 * lane-templated walk in src/uarch.
 *
 * referenceSimulate() is the scalar, one-depth-per-pass body that
 * simulate() ran before the walk was templated on its lane count,
 * kept together with the scalar SlotRing/CapacityRing that only it
 * uses. It takes the activity and issue-attribution rules from
 * uarch/walk_state.hh, at width 1, so those rules have one
 * definition; everything else is its own. Nothing in src/ calls it.
 * The tests compare every compiled lane count and lane-group width
 * of the walk against it byte for byte
 * (tests/uarch/test_multi_depth_walk.cc), and the perf-smoke test
 * times the 1-lane walk against it.
 */

#ifndef PIPEDEPTH_TESTS_UARCH_REFERENCE_WALK_HH
#define PIPEDEPTH_TESTS_UARCH_REFERENCE_WALK_HH

#include "trace/replay_buffer.hh"
#include "uarch/pipeline_config.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/sim_result.hh"

namespace pipedepth
{

/**
 * Walk @p replay under @p config alone, with the same preconditions
 * as simulate(replay, annotations, config).
 */
SimResult referenceSimulate(const ReplayBuffer &replay,
                            const ReplayAnnotations &annotations,
                            const PipelineConfig &config);

} // namespace pipedepth

#endif // PIPEDEPTH_TESTS_UARCH_REFERENCE_WALK_HH
