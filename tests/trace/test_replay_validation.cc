/**
 * @file
 * ReplayAnnotations::validateFor — the guard between a replay buffer
 * and an annotation set that was not built for it.
 *
 * The timing walks index the per-op annotation arrays by position
 * without bounds checks, so a mismatched set must be rejected up
 * front with an error a user can act on (naming the workload), not
 * discovered as an out-of-bounds read mid-walk. These are death
 * tests: PP_FATAL exits with code 1.
 */

#include <gtest/gtest.h>

#include "trace/generator.hh"
#include "trace/replay_buffer.hh"
#include "uarch/multi_depth_walk.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/simulator.hh"

namespace pipedepth
{
namespace
{

Trace
smallTrace()
{
    TraceGenParams params;
    params.seed = 42;
    // Long enough that some loads forward under memdepConfig().
    params.length = 4000;
    params.data_working_set = 1ull << 14;
    return generateTrace(params, "valwl");
}

PipelineConfig
config()
{
    return PipelineConfig::forDepth(7);
}

/** Forwards loads, so its annotations carry forwarding entries. */
PipelineConfig
memdepConfig()
{
    PipelineConfig c = config();
    c.model_memory_dependences = true;
    return c;
}

TEST(ReplayValidation, MatchingAnnotationsPass)
{
    const ReplayBuffer replay = prepareReplay(smallTrace());
    const ReplayAnnotations ann = annotateReplay(replay, config());
    ann.validateFor(replay); // must not abort
    const SimResult r = simulate(replay, ann, config());
    EXPECT_EQ(r.instructions, replay.size());
}

TEST(ReplayValidationDeath, FlagsCountMismatchIsFatal)
{
    const ReplayBuffer replay = prepareReplay(smallTrace());
    ReplayAnnotations ann = annotateReplay(replay, config());
    ann.flags.pop_back();
    // The error must name the workload and diagnose the mismatch.
    EXPECT_EXIT(ann.validateFor(replay), ::testing::ExitedWithCode(1),
                "workload 'valwl'.*built for a different trace");
}

TEST(ReplayValidationDeath, ForwardingCountMismatchIsFatal)
{
    // One entry short of the forwarded loads.
    const ReplayBuffer replay = prepareReplay(smallTrace());
    ReplayAnnotations ann = annotateReplay(replay, memdepConfig());
    ASSERT_FALSE(ann.fwd_store.empty());
    ann.fwd_store.pop_back();
    EXPECT_EXIT(ann.validateFor(replay), ::testing::ExitedWithCode(1),
                "workload 'valwl'.*built for a different trace");
}

TEST(ReplayValidationDeath, ForwardingEntryWithoutForwardedLoadIsFatal)
{
    // Without memory dependences no load forwards, so the set is empty
    // and any entry is one too many.
    const ReplayBuffer replay = prepareReplay(smallTrace());
    ReplayAnnotations ann = annotateReplay(replay, config());
    ASSERT_TRUE(ann.fwd_store.empty());
    ann.fwd_store.push_back(0);
    EXPECT_EXIT(ann.validateFor(replay), ::testing::ExitedWithCode(1),
                "workload 'valwl'.*built for a different trace");
}

TEST(ReplayValidationDeath, ForwardingIndexOutOfRangeIsFatal)
{
    const ReplayBuffer replay = prepareReplay(smallTrace());
    ReplayAnnotations ann = annotateReplay(replay, memdepConfig());
    ASSERT_FALSE(ann.fwd_store.empty());
    // A forwarding index at num_stores points past the dense
    // store-ready array every walk keeps — corrupt, not mismatched.
    ann.fwd_store.front() = ann.num_stores;
    EXPECT_EXIT(ann.validateFor(replay), ::testing::ExitedWithCode(1),
                "workload 'valwl'.*corrupt annotation set");
}

TEST(ReplayValidationDeath, ReferenceWalkRejectsMismatch)
{
    // simulate() must validate before walking, so a caller pairing a
    // buffer with someone else's annotations gets the diagnosis.
    const ReplayBuffer replay = prepareReplay(smallTrace());
    ReplayAnnotations ann = annotateReplay(replay, config());
    ann.flags.pop_back();
    EXPECT_EXIT(simulate(replay, ann, config()),
                ::testing::ExitedWithCode(1), "workload 'valwl'");
}

TEST(ReplayValidationDeath, FusedWalkRejectsMismatch)
{
    const ReplayBuffer replay = prepareReplay(smallTrace());
    ReplayAnnotations ann = annotateReplay(replay, memdepConfig());
    ASSERT_FALSE(ann.fwd_store.empty());
    ann.fwd_store.pop_back();
    const std::vector<PipelineConfig> configs{memdepConfig()};
    EXPECT_EXIT(simulateMultiDepth(replay, ann, configs),
                ::testing::ExitedWithCode(1), "workload 'valwl'");
}

} // namespace
} // namespace pipedepth
