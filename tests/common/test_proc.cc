/**
 * @file
 * processAlive(): the dead-pid probe under the result cache's temp
 * sweep. The semantics that matter are the conservative ones — only
 * ESRCH may ever report "dead", because the sweep *deletes* a stale
 * temp file on that answer.
 */

#include <gtest/gtest.h>

#include <csignal>

#include <sys/wait.h>
#include <unistd.h>

#include "common/proc.hh"

namespace pipedepth
{
namespace
{

TEST(Proc, SelfIsAlive)
{
    EXPECT_TRUE(processAlive(::getpid()));
}

TEST(Proc, ParentIsAlive)
{
    EXPECT_TRUE(processAlive(::getppid()));
}

TEST(Proc, ReapedChildIsDead)
{
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0)
        ::_exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // Fully reaped: the pid no longer names a process (until reuse,
    // which cannot happen here — we hold no other children).
    EXPECT_FALSE(processAlive(pid));
}

TEST(Proc, KilledChildIsDeadAfterReap)
{
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        ::pause();
        ::_exit(0);
    }
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status));
    EXPECT_FALSE(processAlive(pid));
}

TEST(Proc, InitIsAliveEvenWhenUnsignalable)
{
    // pid 1 always exists. For a non-root caller kill(1, 0) answers
    // EPERM — which must read as *alive*: treating an unsignalable
    // writer as dead would let an unprivileged process delete a
    // privileged one's in-flight temp file. For root the plain
    // success path covers it; either way the answer is "alive".
    EXPECT_TRUE(processAlive(1));
}

TEST(Proc, NonPositivePidsAreDead)
{
    // kill(0, .) / kill(-1, .) address process *groups*; a temp file
    // stamped with such a pid is garbage, never a live writer.
    EXPECT_FALSE(processAlive(0));
    EXPECT_FALSE(processAlive(-1));
}

} // namespace
} // namespace pipedepth
