/**
 * @file
 * SweepServer: sweep-as-a-service over a local socket.
 *
 * A persistent daemon process (tools/pipesimd.cc) owning one
 * SweepEngine and one result cache, accepting
 * sweep and optimum-depth queries over an AF_UNIX stream socket
 * speaking the NDJSON protocol of server/protocol.hh. The point of
 * the daemon over batch pipesim: trace/annotation state and the
 * result cache stay hot across requests, and *concurrent* requests
 * for overlapping workload x depth cells are batched into one engine
 * grid — deduplicated cells simulate once, in one fused multi-depth
 * walk, and every requester gets its answer from that single pass.
 *
 * Architecture (docs/SERVER.md):
 *
 *  - one I/O thread: poll(2) over the listen socket, a self-pipe and
 *    every connection; reads are framed into lines, parsed and
 *    validated inline, and admitted to a bounded queue; writes drain
 *    per-connection output buffers;
 *  - one scheduler thread: drains the whole admission queue per pass,
 *    groups requests by option shape (ServerRequest::shapeKey),
 *    deduplicates workloads within a group, runs one
 *    SweepEngine::runGrid per group and routes per-request responses
 *    back through the I/O thread.
 *
 * The daemon keeps no per-cell record of its own: each request's
 * cached and computed cells are counted from a run manifest attached
 * for its one runGrid call, and the access log and the `stats` verb
 * are its record. One member, recordAnswer(), writes that record for
 * every answered request.
 *
 * Admission control: a full queue rejects with "overloaded" rather
 * than queueing unboundedly.
 *
 * Graceful drain: requestShutdown() (async-signal-safe; wired to
 * SIGTERM/SIGINT by pipesimd) stops accept(2), refuses lines that
 * arrive after the signal with "shutting_down", finishes every
 * admitted request, flushes every connection and returns from
 * serve().
 */

#ifndef PIPEDEPTH_SERVER_SERVER_HH
#define PIPEDEPTH_SERVER_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/access_log.hh"
#include "server/protocol.hh"
#include "sweep/sweep_engine.hh"

namespace pipedepth
{

/** Daemon construction knobs (tools/pipesimd.cc flags map 1:1). */
struct ServerOptions
{
    std::string socket_path; //!< AF_UNIX path to listen on (required)

    /// Engine knobs, passed through to SweepEngineOptions.
    unsigned engine_threads = 0; //!< 0 = hardware concurrency
    bool use_cache = true;
    std::string cache_dir;

    /**
     * Admission bound: requests parsed but not yet picked up by the
     * scheduler. A full queue answers "overloaded" immediately.
     */
    std::size_t max_queue = 1024;

    /**
     * Longest accepted request line (bytes, newline excluded). A
     * longer line, terminated or not, gets one "payload_too_large"
     * error; nothing behind it on that connection is handled, and the
     * connection closes once the error flushes.
     */
    std::size_t max_line_bytes = 65536;

    /**
     * Slow-loris hardening (0 = off): a connection that has buffered
     * bytes but no complete line (mid-line) and nothing in flight is
     * closed once it sits idle this long. Complete-line requests are
     * never affected — an idle connection with an *empty* input
     * buffer is a legitimate keep-alive and stays open, and a
     * connection waiting on an admitted request is busy, not idle.
     * Each expiry counts on `server.conn.idle.closed`.
     */
    std::uint64_t idle_timeout_ms = 0;

    /**
     * Structured JSONL access log, one flushed line per finished
     * request ("" = off; schema in server/access_log.hh and
     * docs/OBSERVABILITY.md). start() fails when the path cannot be
     * opened — a daemon asked to account for every request must not
     * silently run unaccounted.
     */
    std::string access_log;
};

class SweepServer
{
  public:
    explicit SweepServer(const ServerOptions &options);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /**
     * Bind and listen on the socket (sweeping a stale socket file
     * left by a dead daemon), open the self-pipe and start the
     * scheduler thread. @return false with the reason in @p error.
     */
    bool start(std::string *error);

    /**
     * Run the I/O loop on the calling thread until a requested
     * shutdown has fully drained: every admitted request answered,
     * every connection flushed. @return 0 on a clean drain.
     */
    int serve();

    /**
     * Begin graceful drain. Async-signal-safe (one atomic store and
     * one pipe write), callable from any thread or signal handler.
     */
    void requestShutdown();

  private:
    struct Connection
    {
        int fd = -1;
        std::string in;  //!< unframed inbound bytes
        std::string out; //!< unsent response bytes
        std::string peer; //!< "pid:N,uid:N" (SO_PEERCRED), "" unknown
        bool close_after_flush = false;
        bool peer_eof = false;     //!< read side saw EOF (half-close)
        std::size_t inflight = 0;  //!< admitted, not yet answered
        /** Last byte received; idle-timeout expiry measures from
         *  here (slow-loris hardening, ServerOptions). */
        std::chrono::steady_clock::time_point last_read;
    };

    /** One admitted request awaiting the scheduler. */
    struct Pending
    {
        ServerRequest request;
        std::uint64_t conn_id = 0;
        std::string peer;
        /** Start of its parse; its latency and phases run from here. */
        std::chrono::steady_clock::time_point received;
        double parse_us = 0.0; //!< parse/validate time on the I/O thread
    };

    void ioLoop();
    void schedulerLoop();
    void executeBatch(std::vector<Pending> batch,
                      std::chrono::steady_clock::time_point pickup);
    void handleLine(std::uint64_t conn_id, Connection &conn,
                    const std::string &line);
    /**
     * The one record of an answered request (a done line, a refusal
     * or a stats answer): bumps the counter of its outcome and writes
     * its access-log line. @p kind is the request's kind name, or
     * "invalid" for a line that did not parse; @p outcome is "ok" or
     * the wire error code; @p info carries the cell counts, the
     * phases and the latency (elapsed_ms). Thread-safe.
     */
    void recordAnswer(const ServerRequest &request, const std::string &kind,
                      const std::string &peer, const std::string &outcome,
                      const DoneInfo &info);
    /** Stats snapshot; I/O thread only (reads connection state). */
    StatsInfo buildStats();
    /** Thread-safe: queue @p data for @p conn_id and wake the poller. */
    void respond(std::uint64_t conn_id, std::string data);
    void wake();
    bool drainComplete();

    ServerOptions options_;
    SweepEngine engine_;
    AccessLog access_log_;
    std::chrono::steady_clock::time_point started_at_;
    std::uint64_t next_trace_seq_ = 0; //!< I/O thread only

    int listen_fd_ = -1;
    int wake_read_fd_ = -1;
    int wake_write_fd_ = -1;
    /**
     * True only after THIS process bound socket_path. Every unlink of
     * the socket file is gated on it: a failed start() (e.g. another
     * daemon is live on the path) must never remove a socket it does
     * not own, and once the drain unlinked the path a successor may
     * already have bound it.
     */
    bool owns_socket_ = false;

    // I/O-thread state (no lock: touched only from serve()).
    std::map<std::uint64_t, Connection> connections_;
    std::uint64_t next_conn_id_ = 1;

    // Scheduler handoff.
    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::vector<Pending> queue_;
    bool scheduler_exited_ = false;
    /**
     * Set (under queue_mutex_) by the I/O thread once draining_ is
     * visible on its side, i.e. once no further admission is
     * possible. The scheduler exits only on empty queue AND this
     * flag — exiting on the raw shutdown flag would race a last
     * request admitted between the signal and the I/O thread noticing
     * it, dropping that request.
     */
    bool drain_confirmed_ = false;
    std::thread scheduler_;

    // Cross-thread response routing.
    std::mutex outbox_mutex_;
    std::vector<std::pair<std::uint64_t, std::string>> outbox_;

    std::atomic<bool> shutdown_requested_{false};
    bool draining_ = false; //!< I/O-thread view of the shutdown flag
};

} // namespace pipedepth

#endif // PIPEDEPTH_SERVER_SERVER_HH
