/**
 * @file
 * ShardCoordinator protocol tests: lease claim/release/done life
 * cycle, dead-pid takeover, quarantine propagation and shard rollup
 * round-trips — all against a private coordination directory, no
 * worker processes involved. The cross-process chaos path (SIGKILL a
 * real worker, survivors finish the grid) lives in
 * tests/reliability/test_reliability.cc.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "sweep/shard_coordinator.hh"
#include "telemetry/manifest.hh"

namespace pipedepth
{
namespace
{

/** Fresh private coordination directory per test. */
class ShardCoordinatorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("pipedepth-shard-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    ShardOptions
    optionsFor(unsigned shard_id, unsigned shards = 4) const
    {
        ShardOptions opt;
        opt.shards = shards;
        opt.shard_id = shard_id;
        opt.dir = dir_.string();
        opt.poll_ms = 1;
        return opt;
    }

    std::filesystem::path dir_;
};

TEST_F(ShardCoordinatorTest, ClaimThenDoneLifeCycle)
{
    ShardCoordinator coord(optionsFor(0));
    EXPECT_FALSE(coord.isDone("group-a"));
    ASSERT_EQ(coord.tryClaim("group-a"),
              ShardCoordinator::Claim::Acquired);
    coord.markDone("group-a");
    EXPECT_TRUE(coord.isDone("group-a"));
    // Once the completion marker exists the group is never claimed
    // again — by anyone.
    EXPECT_EQ(coord.tryClaim("group-a"), ShardCoordinator::Claim::Done);
    ShardCoordinator other(optionsFor(1));
    EXPECT_EQ(other.tryClaim("group-a"), ShardCoordinator::Claim::Done);
}

TEST_F(ShardCoordinatorTest, ReleaseMakesGroupClaimableAgain)
{
    ShardCoordinator coord(optionsFor(0));
    ASSERT_EQ(coord.tryClaim("group-b"),
              ShardCoordinator::Claim::Acquired);
    coord.release("group-b");
    EXPECT_FALSE(coord.isDone("group-b"));
    ShardCoordinator other(optionsFor(1));
    EXPECT_EQ(other.tryClaim("group-b"),
              ShardCoordinator::Claim::Acquired);
}

TEST_F(ShardCoordinatorTest, LiveForeignOwnerMeansBusyUntilDead)
{
    // A lease stamped with a *live* pid in another process holds the
    // claimer off; the moment that pid dies, the very same lease is
    // taken over. (Two coordinators in one process cannot test this:
    // a lease stamped with our own pid reads as a coordinator restart
    // and is deliberately reclaimed.)
    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        ::pause();
        ::_exit(0);
    }
    std::filesystem::create_directories(dir_);
    const std::string lease =
        (dir_ / ("lease." + ShardCoordinator::keyHash("group-c")))
            .string();
    {
        std::ofstream out(lease);
        out << child << " shard 1\n";
    }
    ShardCoordinator coord(optionsFor(0));
    EXPECT_EQ(coord.tryClaim("group-c"), ShardCoordinator::Claim::Busy);
    EXPECT_TRUE(std::filesystem::exists(lease));

    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_EQ(coord.tryClaim("group-c"),
              ShardCoordinator::Claim::Acquired);
}

TEST_F(ShardCoordinatorTest, DeadOwnerLeaseIsTakenOver)
{
    ShardCoordinator coord(optionsFor(0));
    // Plant a lease stamped with a pid that cannot exist (beyond
    // every pid_max Linux allows), exactly the residue a SIGKILLed
    // worker leaves behind.
    std::filesystem::create_directories(dir_);
    const std::string lease =
        (dir_ / ("lease." + ShardCoordinator::keyHash("group-d")))
            .string();
    {
        std::ofstream out(lease);
        out << "999999999 shard 3\n";
    }
    ASSERT_TRUE(std::filesystem::exists(lease));
    EXPECT_EQ(coord.tryClaim("group-d"),
              ShardCoordinator::Claim::Acquired);
    // The takeover re-claimed under our own pid.
    std::ifstream in(lease);
    long owner = 0;
    in >> owner;
    EXPECT_EQ(owner, static_cast<long>(::getpid()));
    // markDone releases the lease and publishes the marker.
    coord.markDone("group-d");
    EXPECT_FALSE(std::filesystem::exists(lease));
    ShardCoordinator other(optionsFor(2));
    EXPECT_EQ(other.tryClaim("group-d"), ShardCoordinator::Claim::Done);
}

TEST_F(ShardCoordinatorTest, UnusableDirectoryMeansUncoordinated)
{
    // Point the coordination directory somewhere that cannot be
    // created: the coordinator must degrade to Uncoordinated (the
    // sweep computes without cross-process exclusion), never throw.
    ShardOptions opt = optionsFor(0);
    const auto blocker = dir_ / "file";
    std::filesystem::create_directories(dir_);
    { std::ofstream out(blocker); out << "x"; }
    opt.dir = (blocker / "nested").string();
    ShardCoordinator coord(opt);
    EXPECT_EQ(coord.tryClaim("group-e"),
              ShardCoordinator::Claim::Uncoordinated);
    coord.markDone("group-e"); // must be a harmless no-op
    EXPECT_FALSE(coord.isDone("group-e"));
}

TEST_F(ShardCoordinatorTest, QuarantineRecordsRoundTripAcrossShards)
{
    ShardCoordinator coord(optionsFor(0));
    FailureRecord record;
    record.workload = "db1";
    record.depth = 9;
    record.cause = "injected fault: sweep.cell.simulate";
    record.failpoint = "sweep.cell.simulate";
    record.attempts = 3;
    coord.recordQuarantine(record);
    coord.recordQuarantine(record); // idempotent

    ShardCoordinator other(optionsFor(3));
    FailureRecord got;
    ASSERT_TRUE(other.lookupQuarantine("db1", 9, &got));
    EXPECT_EQ(got.workload, "db1");
    EXPECT_EQ(got.depth, 9);
    EXPECT_EQ(got.cause, record.cause);
    EXPECT_EQ(got.failpoint, record.failpoint);
    EXPECT_EQ(got.attempts, record.attempts);
    // Keyed by (workload, depth): neighbours are unaffected.
    EXPECT_FALSE(other.lookupQuarantine("db1", 10));
    EXPECT_FALSE(other.lookupQuarantine("oltp1", 9));
}

TEST_F(ShardCoordinatorTest, OwnershipIsRoundRobinAndAdvisory)
{
    ShardCoordinator coord(optionsFor(1, 3));
    EXPECT_EQ(coord.ownerOf(0), 0u);
    EXPECT_EQ(coord.ownerOf(1), 1u);
    EXPECT_EQ(coord.ownerOf(2), 2u);
    EXPECT_EQ(coord.ownerOf(3), 0u);
    EXPECT_TRUE(coord.mine(1));
    EXPECT_TRUE(coord.mine(4));
    EXPECT_FALSE(coord.mine(0));
    // Advisory only: a foreign group is claimable all the same.
    EXPECT_EQ(coord.tryClaim("foreign-group", /*steal=*/true),
              ShardCoordinator::Claim::Acquired);
}

TEST_F(ShardCoordinatorTest, KeyHashIsStableAndFileNameSafe)
{
    const std::string a = ShardCoordinator::keyHash("grid:db1:2..12");
    EXPECT_EQ(a, ShardCoordinator::keyHash("grid:db1:2..12"));
    EXPECT_NE(a, ShardCoordinator::keyHash("grid:db2:2..12"));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

TEST_F(ShardCoordinatorTest, ShardRollupsRoundTrip)
{
    std::filesystem::create_directories(dir_);
    ManifestShard a;
    a.shard_id = 0;
    a.exit_code = 0;
    a.cells_computed = 12;
    a.cache_hits = 3;
    a.cells_quarantined = 1;
    a.wall_seconds = 1.5;
    ManifestShard b;
    b.shard_id = 2;
    b.exit_code = 3;
    b.cells_computed = 7;
    ASSERT_TRUE(writeShardRollup(dir_.string(), a));
    ASSERT_TRUE(writeShardRollup(dir_.string(), b));

    // Shard 1 never wrote a rollup (it was SIGKILLed, say): readback
    // yields exactly the files that exist, in shard order.
    const auto rollups = readShardRollups(dir_.string(), 4);
    ASSERT_EQ(rollups.size(), 2u);
    EXPECT_EQ(rollups[0].shard_id, 0u);
    EXPECT_EQ(rollups[0].exit_code, 0);
    EXPECT_EQ(rollups[0].cells_computed, 12u);
    EXPECT_EQ(rollups[0].cache_hits, 3u);
    EXPECT_EQ(rollups[0].cells_quarantined, 1u);
    EXPECT_DOUBLE_EQ(rollups[0].wall_seconds, 1.5);
    EXPECT_EQ(rollups[1].shard_id, 2u);
    EXPECT_EQ(rollups[1].exit_code, 3);
    EXPECT_EQ(rollups[1].cells_computed, 7u);
}

} // namespace
} // namespace pipedepth
