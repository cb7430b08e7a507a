/**
 * @file
 * Process-liveness probing for the result cache's temp-file sweep.
 *
 * A cache store writes a temp file stamped with the writer's pid
 * (`*.tmp.<pid>.<n>`) and renames it into place; a writer that died
 * in between leaves the temp file behind. Opening the cache sweeps
 * those, and must decide: is the stamped writer still alive? The only
 * portable answer is kill(pid, 0), whose error semantics are subtle
 * enough to pin in one helper.
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
 * Pid reuse is deliberately out of scope: a reused pid reads as
 * "alive", and the sweep tolerates that false answer — the temp file
 * only survives until a later sweep finds the pid free. Mutual
 * exclusion must never rest on this probe (shard leases are flock(2)
 * locks, which the kernel drops when their holder dies).
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
