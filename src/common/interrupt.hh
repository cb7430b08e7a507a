/**
 * @file
 * Cooperative interrupt handling for long-running sweeps.
 *
 * installInterruptHandlers() routes SIGINT and SIGTERM to a flag that
 * the sweep engine polls between cells: on the first signal the grid
 * *drains* — in-flight cells finish, no new cells start, the manifest
 * finalizes with status "interrupted" — so a Ctrl-C'd catalog sweep
 * keeps every completed cell in the result cache, and re-running the
 * same command resumes from where it stopped (docs/RELIABILITY.md).
 * A second signal exits immediately for users who really mean it.
 *
 * The flag is process-global and async-signal-safe; tests drive it
 * directly with requestInterrupt()/clearInterruptRequest().
 */

#ifndef PIPEDEPTH_COMMON_INTERRUPT_HH
#define PIPEDEPTH_COMMON_INTERRUPT_HH

namespace pipedepth
{

/**
 * Install the SIGINT/SIGTERM drain handlers (idempotent). Tools that
 * run sweeps call this before the grid starts.
 */
void installInterruptHandlers();

/** Has an interrupt (signal or requestInterrupt) been requested? */
bool interruptRequested();

/**
 * The signal that triggered the request (SIGINT/SIGTERM), or 0 when
 * none was delivered (e.g. the request came from a test). The
 * conventional exit status of an interrupted run is 128 + this.
 */
int interruptSignal();

/** Request a drain programmatically (tests, embedders). */
void requestInterrupt();

/** Clear the flag (tests; a drained run normally just exits). */
void clearInterruptRequest();

} // namespace pipedepth

#endif // PIPEDEPTH_COMMON_INTERRUPT_HH
