/**
 * @file
 * Unit tests for the StallLedger bucket arithmetic and its strictness
 * about misuse. The conservation property over real simulations lives
 * in test_conservation.cc (ctest label "ledger").
 */

#include <gtest/gtest.h>

#include "ledger/stall_ledger.hh"

namespace pipedepth
{
namespace
{

TEST(StallLedger, PerfectStreamIsAllBaseWork)
{
    // Width 2, six instructions retiring 2 per cycle from cycle 0:
    // ideal machine, every cycle is base work.
    StallLedger ledger(2);
    for (int i = 0; i < 6; ++i)
        ledger.commit(i / 2, StallBucket::Other);
    ledger.finalize(3);

    EXPECT_EQ(ledger.cycles(StallBucket::BaseWork), 3u);
    EXPECT_EQ(ledger.cycles(StallBucket::SuperscalarLoss), 0u);
    EXPECT_EQ(ledger.cycles(StallBucket::Other), 0u);
    EXPECT_EQ(ledger.total(), 3u);
    EXPECT_EQ(ledger.residual(), 0);
    EXPECT_EQ(ledger.instructions(), 6u);
}

TEST(StallLedger, FirstGapIsDrainRegardlessOfCause)
{
    // The first instruction retires at cycle 4 after the pipe fills;
    // its declared cause must be overridden to Drain.
    StallLedger ledger(4);
    ledger.commit(4, StallBucket::Mispredict);
    ledger.commit(4, StallBucket::Mispredict);
    ledger.finalize(5);

    EXPECT_EQ(ledger.cycles(StallBucket::Drain), 4u);
    EXPECT_EQ(ledger.cycles(StallBucket::Mispredict), 0u);
    EXPECT_EQ(ledger.cycles(StallBucket::BaseWork), 1u);
    EXPECT_EQ(ledger.residual(), 0);
}

TEST(StallLedger, BubblesChargedToCauseWithEventCount)
{
    StallLedger ledger(1);
    ledger.commit(0, StallBucket::Other);      // fill gap 0
    ledger.commit(1, StallBucket::Other);      // back to back
    ledger.commit(5, StallBucket::DepLoad);    // 3-cycle bubble
    ledger.commit(8, StallBucket::Mispredict); // 2-cycle bubble
    ledger.commit(9, StallBucket::DepLoad);    // no bubble
    ledger.finalize(10);

    EXPECT_EQ(ledger.cycles(StallBucket::DepLoad), 3u);
    EXPECT_EQ(ledger.events(StallBucket::DepLoad), 1u);
    EXPECT_EQ(ledger.cycles(StallBucket::Mispredict), 2u);
    EXPECT_EQ(ledger.events(StallBucket::Mispredict), 1u);
    EXPECT_EQ(ledger.cycles(StallBucket::BaseWork), 5u);
    EXPECT_EQ(ledger.cycles(StallBucket::SuperscalarLoss), 0u);
    EXPECT_EQ(ledger.total(), 10u);
    EXPECT_EQ(ledger.residual(), 0);
}

TEST(StallLedger, BelowWidthRetirementIsSuperscalarLoss)
{
    // Width 4 but only one instruction retires per cycle: the ideal
    // machine would need ceil(8/4) = 2 cycles; the 6 extra work
    // cycles are utilization loss, not stalls.
    StallLedger ledger(4);
    for (int i = 0; i < 8; ++i)
        ledger.commit(i, StallBucket::DepInt);
    ledger.finalize(8);

    EXPECT_EQ(ledger.cycles(StallBucket::BaseWork), 2u);
    EXPECT_EQ(ledger.cycles(StallBucket::SuperscalarLoss), 6u);
    EXPECT_EQ(ledger.cycles(StallBucket::DepInt), 0u);
    EXPECT_EQ(ledger.residual(), 0);
}

TEST(StallLedger, ResidualExposesForeignCycles)
{
    // finalize() against a cycle count the retire stream does not
    // explain: the difference must surface as the residual, not
    // disappear.
    StallLedger ledger(1);
    ledger.commit(0, StallBucket::Other);
    ledger.finalize(7);
    EXPECT_EQ(ledger.total(), 1u);
    EXPECT_EQ(ledger.residual(), 6);
}

TEST(StallLedger, CommitStreamBooksLikeCommits)
{
    // The stream of BubblesChargedToCauseWithEventCount, tallied by
    // the caller: 5 retirements in 5 distinct cycles, a 3-cycle
    // DepLoad bubble and a 2-cycle Mispredict bubble.
    StallLedger::BucketCounts cycles{};
    StallLedger::BucketCounts events{};
    cycles[static_cast<std::size_t>(StallBucket::DepLoad)] = 3;
    events[static_cast<std::size_t>(StallBucket::DepLoad)] = 1;
    cycles[static_cast<std::size_t>(StallBucket::Mispredict)] = 2;
    events[static_cast<std::size_t>(StallBucket::Mispredict)] = 1;
    StallLedger ledger(1);
    ledger.commitStream(5, 5, cycles, events);
    ledger.finalize(10);

    EXPECT_EQ(ledger.cycles(StallBucket::BaseWork), 5u);
    EXPECT_EQ(ledger.cycles(StallBucket::SuperscalarLoss), 0u);
    EXPECT_EQ(ledger.cycles(StallBucket::DepLoad), 3u);
    EXPECT_EQ(ledger.events(StallBucket::Mispredict), 1u);
    EXPECT_EQ(ledger.instructions(), 5u);
    EXPECT_EQ(ledger.residual(), 0);
}

TEST(StallLedger, BucketNamesAreStableIdentifiers)
{
    EXPECT_EQ(stallBucketName(StallBucket::BaseWork), "base_work");
    EXPECT_EQ(stallBucketName(StallBucket::DepLoad), "dep_load");
    EXPECT_EQ(stallBucketName(StallBucket::Other), "other");
    EXPECT_FALSE(isChargeableBucket(StallBucket::BaseWork));
    EXPECT_FALSE(isChargeableBucket(StallBucket::SuperscalarLoss));
    EXPECT_TRUE(isChargeableBucket(StallBucket::Mispredict));
    EXPECT_TRUE(isChargeableBucket(StallBucket::Drain));
}

TEST(StallLedgerDeath, RejectsMisuse)
{
    StallLedger decreasing(2);
    decreasing.commit(5, StallBucket::Other);
    EXPECT_DEATH(decreasing.commit(4, StallBucket::Other),
                 "non-decreasing");

    StallLedger over_width(2);
    over_width.commit(0, StallBucket::Other);
    over_width.commit(0, StallBucket::Other);
    EXPECT_DEATH(over_width.commit(0, StallBucket::Other),
                 "more than 2 retirements");

    StallLedger derived(2);
    EXPECT_DEATH(derived.commit(0, StallBucket::BaseWork),
                 "derived bucket");

    StallLedger unfinalized(2);
    unfinalized.commit(0, StallBucket::Other);
    EXPECT_DEATH((void)unfinalized.cycles(StallBucket::Other),
                 "before finalize");
    EXPECT_DEATH((void)unfinalized.residual(), "before finalize");

    StallLedger empty(2);
    EXPECT_DEATH(empty.finalize(0), "no retirements");

    const StallLedger::BucketCounts none{};
    StallLedger committed(2);
    committed.commit(0, StallBucket::Other);
    EXPECT_DEATH(committed.commitStream(1, 1, none, none),
                 "ledger with commits");
    StallLedger::BucketCounts base{};
    base[static_cast<std::size_t>(StallBucket::BaseWork)] = 1;
    StallLedger charged_base(2);
    EXPECT_DEATH(charged_base.commitStream(1, 1, base, none),
                 "derived bucket");

    StallLedger twice(2);
    twice.commit(0, StallBucket::Other);
    twice.finalize(1);
    EXPECT_DEATH(twice.finalize(1), "finalize called twice");
    EXPECT_DEATH(twice.commit(1, StallBucket::Other),
                 "commit after finalize");
}

} // namespace
} // namespace pipedepth
