/**
 * @file
 * ShardCoordinator tests: a group's lease is one flock(2), held while
 * the descriptor is open and dropped by release(), by destruction and
 * by the kernel when its holder dies — SIGKILLed and not yet reaped
 * included. Leftover lease files carry no state. All against a
 * private coordination directory; the cross-process chaos path
 * (SIGKILL a real worker, survivors finish the grid) lives in
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
        return opt;
    }

    /** Path of the lease file of group @p key. */
    std::string
    leasePath(const std::string &key) const
    {
        return (dir_ / ("lease." + ShardCoordinator::keyHash(key)))
            .string();
    }

    /**
     * Fork a child that claims @p key through its own coordinator and
     * then waits to be killed. @return its pid once the claim is
     * made, or -1 when the child could not claim.
     */
    pid_t
    forkHolder(const std::string &key) const
    {
        int ready[2];
        if (::pipe(ready) != 0)
            return -1;
        const pid_t child = ::fork();
        if (child == 0) {
            ::close(ready[0]);
            ShardCoordinator holder(optionsFor(1));
            const char ok =
                holder.tryClaim(key) == ShardCoordinator::Claim::Acquired
                    ? 'y'
                    : 'n';
            if (::write(ready[1], &ok, 1) != 1)
                ::_exit(1);
            for (;;)
                ::pause();
        }
        ::close(ready[1]);
        char ok = 'n';
        const bool claimed =
            child > 0 && ::read(ready[0], &ok, 1) == 1 && ok == 'y';
        ::close(ready[0]);
        if (child > 0 && !claimed) {
            ::kill(child, SIGKILL);
            ::waitpid(child, nullptr, 0);
        }
        return claimed ? child : -1;
    }

    std::filesystem::path dir_;
};

TEST_F(ShardCoordinatorTest, ReleaseMakesGroupClaimableAgain)
{
    ShardCoordinator coord(optionsFor(0));
    ASSERT_EQ(coord.tryClaim("group-b"),
              ShardCoordinator::Claim::Acquired);
    coord.release("group-b");
    ShardCoordinator other(optionsFor(1));
    EXPECT_EQ(other.tryClaim("group-b"),
              ShardCoordinator::Claim::Acquired);
}

TEST_F(ShardCoordinatorTest, LiveForeignOwnerMeansBusyUntilDead)
{
    // A lock held by a live process holds the claimer off; once that
    // process is dead and reaped, the group is free.
    const pid_t child = forkHolder("group-c");
    ASSERT_GT(child, 0);
    ShardCoordinator coord(optionsFor(0));
    EXPECT_EQ(coord.tryClaim("group-c"), ShardCoordinator::Claim::Busy);

    ASSERT_EQ(::kill(child, SIGKILL), 0);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);
    EXPECT_EQ(coord.tryClaim("group-c"),
              ShardCoordinator::Claim::Acquired);
}

TEST_F(ShardCoordinatorTest, SigkilledHolderFreesLockBeforeReap)
{
    // The kernel closes a dying process's descriptors before it turns
    // into a zombie, so its locks are free while it is still unreaped.
    const pid_t child = forkHolder("group-z");
    ASSERT_GT(child, 0);
    ShardCoordinator coord(optionsFor(0));
    EXPECT_EQ(coord.tryClaim("group-z"), ShardCoordinator::Claim::Busy);

    ASSERT_EQ(::kill(child, SIGKILL), 0);
    // Wait for the exit but leave the child a zombie (WNOWAIT).
    siginfo_t info{};
    ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(child), &info,
                       WEXITED | WNOWAIT),
              0);
    EXPECT_EQ(coord.tryClaim("group-z"),
              ShardCoordinator::Claim::Acquired);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);
}

TEST_F(ShardCoordinatorTest, DeadOwnerLeaseIsTakenOver)
{
    // A lease file whose last holder died is free: only a held lock
    // is ownership, whatever the file says (here, a pid that cannot
    // exist).
    std::filesystem::create_directories(dir_);
    const std::string lease = leasePath("group-d");
    {
        std::ofstream out(lease);
        out << "999999999 shard 3\n";
    }
    ShardCoordinator coord(optionsFor(0));
    EXPECT_EQ(coord.tryClaim("group-d"),
              ShardCoordinator::Claim::Acquired);
    // Lease files are never unlinked: release only drops the lock.
    coord.release("group-d");
    EXPECT_TRUE(std::filesystem::exists(lease));
    ShardCoordinator other(optionsFor(2));
    EXPECT_EQ(other.tryClaim("group-d"),
              ShardCoordinator::Claim::Acquired);
}

TEST_F(ShardCoordinatorTest, LeftoverLeaseOfLiveUnrelatedPidIsFree)
{
    // A lease file's content is not ownership: one stamped with a live
    // pid (our parent's — a reused pid looks the same) is claimable.
    std::filesystem::create_directories(dir_);
    {
        std::ofstream out(leasePath("group-p"));
        out << ::getppid() << " shard 1\n";
    }
    ShardCoordinator coord(optionsFor(0));
    EXPECT_EQ(coord.tryClaim("group-p"),
              ShardCoordinator::Claim::Acquired);
}

TEST_F(ShardCoordinatorTest, TwoCoordinatorsInOneProcessExclude)
{
    ShardCoordinator a(optionsFor(0));
    ASSERT_EQ(a.tryClaim("group-t"), ShardCoordinator::Claim::Acquired);
    {
        ShardCoordinator b(optionsFor(1));
        EXPECT_EQ(b.tryClaim("group-t"), ShardCoordinator::Claim::Busy);
        a.release("group-t");
        EXPECT_EQ(b.tryClaim("group-t"),
                  ShardCoordinator::Claim::Acquired);
        // Destroying b drops the lock it still holds.
    }
    EXPECT_EQ(a.tryClaim("group-t"), ShardCoordinator::Claim::Acquired);
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
    coord.release("group-e"); // must be a harmless no-op
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

} // namespace
} // namespace pipedepth
