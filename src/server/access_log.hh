/**
 * @file
 * Structured JSONL access log for the pipesimd daemon.
 *
 * One flushed line per finished request — done, error, stats or
 * health — so a tail of the file is a live view of what the daemon
 * is serving, and a post-mortem can account for every request the
 * load harness sent (CI asserts exactly-once coverage). Each line is
 * a self-contained JSON object carrying the correlation
 * (trace_id/id/peer), the request shape (kind, workload, scheduling
 * shape key), the cell accounting of the done line, the per-phase
 * latency attribution (PhaseTimings, microseconds) and the outcome
 * ("ok" or the wire error code). docs/OBSERVABILITY.md documents the
 * schema; tests/server/test_server.cc pins it.
 *
 * Thread-safety: write() is mutex-guarded whole-line appends, called
 * from both the I/O thread (inline verbs, refusals) and the
 * scheduler thread (grid requests).
 */

#ifndef PIPEDEPTH_SERVER_ACCESS_LOG_HH
#define PIPEDEPTH_SERVER_ACCESS_LOG_HH

#include <cstdio>
#include <mutex>
#include <string>

#include "server/protocol.hh"

namespace pipedepth
{

class AccessLog
{
  public:
    /**
     * Everything one line records about one finished request. The
     * rendered line leads with `ts_us`, microseconds on the tracer
     * clock (SpanTracer::nowMicros).
     */
    struct Entry
    {
        std::string trace_id;
        std::string id;
        std::string peer;     //!< "pid:N,uid:N" (SO_PEERCRED), "" unknown
        std::string kind;     //!< request kind, or "invalid" pre-parse
        std::string workload; //!< "" for non-grid requests
        std::string shape;    //!< scheduling shape key for grid requests
        std::string outcome;  //!< "ok" or the wire error code
        std::size_t cells = 0;
        std::size_t cached = 0;
        std::size_t computed = 0;
        PhaseTimings phases;
        double total_us = 0.0; //!< admission-to-response latency
    };

    AccessLog() = default;
    ~AccessLog();

    AccessLog(const AccessLog &) = delete;
    AccessLog &operator=(const AccessLog &) = delete;

    /**
     * Open (truncating) @p path for appending lines. @return false
     * with the reason in @p error; the log then stays disabled and
     * write() is a no-op.
     */
    bool open(const std::string &path, std::string *error);

    bool enabled() const { return file_ != nullptr; }

    /** Append one flushed line (no-op when not open). */
    void write(const Entry &entry);

    /**
     * The JSON line for @p entry, trailing newline included. Pure —
     * exposed so the line schema is testable without a file.
     */
    static std::string renderLine(const Entry &entry);

  private:
    std::mutex mutex_;
    std::FILE *file_ = nullptr;
};

} // namespace pipedepth

#endif // PIPEDEPTH_SERVER_ACCESS_LOG_HH
