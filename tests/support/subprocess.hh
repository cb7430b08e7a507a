/**
 * @file
 * dieWithParent: for a forked test child that execs pipesim or
 * pipesimd. A test that fails, aborts or times out must not leave its
 * daemon or sweep running, holding the test runner's output pipe open.
 */

#ifndef PIPEDEPTH_TESTS_SUPPORT_SUBPROCESS_HH
#define PIPEDEPTH_TESTS_SUPPORT_SUBPROCESS_HH

#include <csignal>

#include <sys/prctl.h>
#include <unistd.h>

namespace pipedepth
{

/**
 * Call in the child between fork() and exec: the child (and the
 * program it execs) gets SIGKILL when the forking thread dies, and
 * exits at once if the test process @p parent is already gone.
 */
inline void
dieWithParent(pid_t parent)
{
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent)
        ::_exit(127);
}

} // namespace pipedepth

#endif // PIPEDEPTH_TESTS_SUPPORT_SUBPROCESS_HH
