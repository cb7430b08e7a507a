/**
 * @file
 * Process-liveness probing shared by every pid-stamped on-disk
 * protocol in the tree.
 *
 * The result cache's temp-file sweep and the shard coordinator's
 * lease takeover both stamp files with the writer's pid and later
 * need to decide: is that writer still alive? The only portable
 * answer is kill(pid, 0), and its error semantics are subtle enough
 * that every call site would otherwise re-implement them — hence
 * this helper.
 *
 * Semantics (pinned by tests/common/test_proc.cc):
 *  - kill(pid, 0) == 0      -> alive (signalable by us);
 *  - errno == EPERM         -> alive (exists, just not ours to
 *                              signal — sweeping its files would race
 *                              a live writer);
 *  - errno == ESRCH         -> dead: no such process;
 *  - any other error        -> treated as alive, erring on the side
 *                              of never stealing from a live owner.
 *
 * Pid reuse is deliberately out of scope: every protocol built on
 * this probe tolerates a false "alive" (the file just survives a bit
 * longer; a sweep or a takeover retries later), and the workers of
 * one sweep are short-lived siblings, where reuse within a run is not
 * a realistic window.
 */

#ifndef PIPEDEPTH_COMMON_PROC_HH
#define PIPEDEPTH_COMMON_PROC_HH

#include <sys/types.h>

namespace pipedepth
{

/**
 * Is there a process with id @p pid? EPERM counts as alive; only a
 * definitive ESRCH counts as dead. @p pid values <= 0 (process
 * groups, "any") are rejected as dead — callers probe concrete
 * stamped pids, never groups.
 */
bool processAlive(pid_t pid);

} // namespace pipedepth

#endif // PIPEDEPTH_COMMON_PROC_HH
