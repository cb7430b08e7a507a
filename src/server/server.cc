#include "server/server.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{

namespace
{

/** Registry instruments (bound once; see telemetry/metrics.hh). */
struct ServerMetrics
{
    Counter &admitted =
        MetricsRegistry::instance().counter("server.request.admitted");
    Counter &rejected =
        MetricsRegistry::instance().counter("server.request.rejected");
    Counter &completed =
        MetricsRegistry::instance().counter("server.request.completed");
    Counter &deadline = MetricsRegistry::instance().counter(
        "server.request.deadline_exceeded");
    Counter &batches =
        MetricsRegistry::instance().counter("server.batch.runs");
    Counter &conns =
        MetricsRegistry::instance().counter("server.conn.accepted");
    Counter &idle_closed =
        MetricsRegistry::instance().counter("server.conn.idle.closed");
    Counter &socket_swept =
        MetricsRegistry::instance().counter("server.socket.swept");
    Counter &stats_probes =
        MetricsRegistry::instance().counter("server.request.stats");
    Counter &health_probes =
        MetricsRegistry::instance().counter("server.request.health");
    Counter &slow =
        MetricsRegistry::instance().counter("server.request.slow");
    Gauge &queue_depth =
        MetricsRegistry::instance().gauge("server.queue.depth");
    Histogram &latency_us = MetricsRegistry::instance().histogram(
        "server.request.latency_us");
};

ServerMetrics &
serverMetrics()
{
    static ServerMetrics m;
    return m;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags != -1 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != -1;
}

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

double
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * Record one request's phase attribution under
 * `server.phase.<kind>.<phase>_us`. Looked up per call rather than
 * bound statically: the kind is part of the name, and requests are
 * per-batch events, nowhere near the registry's cost ceiling.
 */
void
recordPhases(const char *kind, const PhaseTimings &t)
{
    auto &reg = MetricsRegistry::instance();
    const std::string prefix = std::string("server.phase.") + kind + ".";
    const auto rec = [&](const char *phase, double us) {
        reg.histogram(prefix + phase)
            .record(us <= 0.0 ? 0
                              : static_cast<std::uint64_t>(us + 0.5));
    };
    rec("queue_us", t.queue_us);
    rec("parse_us", t.parse_us);
    rec("batch_us", t.batch_us);
    rec("engine_us", t.engine_us);
    rec("serialize_us", t.serialize_us);
}

} // namespace

SweepServer::SweepServer(const ServerOptions &options)
    : options_(options), engine_([&] {
          SweepEngineOptions eopt;
          eopt.threads = options.engine_threads;
          eopt.use_cache = options.use_cache;
          eopt.cache_dir = options.cache_dir;
          return eopt;
      }())
{
}

SweepServer::~SweepServer()
{
    if (scheduler_.joinable()) {
        requestShutdown();
        // serve() may never have run (start() without serve(), or an
        // early exit): the I/O loop is then not there to confirm the
        // drain, and the scheduler would wait on queue_cv_ forever.
        {
            const std::lock_guard<std::mutex> lock(queue_mutex_);
            drain_confirmed_ = true;
        }
        queue_cv_.notify_all();
        scheduler_.join();
    }
    for (auto &[id, conn] : connections_)
        ::close(conn.fd);
    if (listen_fd_ != -1)
        ::close(listen_fd_);
    if (owns_socket_)
        ::unlink(options_.socket_path.c_str());
    if (wake_read_fd_ != -1)
        ::close(wake_read_fd_);
    if (wake_write_fd_ != -1)
        ::close(wake_write_fd_);
}

bool
SweepServer::start(std::string *error)
{
    auto failStart = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.empty() ||
        options_.socket_path.size() >= sizeof(addr.sun_path)) {
        return failStart("socket path empty or longer than " +
                         std::to_string(sizeof(addr.sun_path) - 1) +
                         " bytes");
    }
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ == -1)
        return failStart("socket(): " + std::string(std::strerror(errno)));
    if (!setNonBlocking(listen_fd_))
        return failStart("fcntl(listen): " +
                         std::string(std::strerror(errno)));

    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) == -1) {
        if (errno != EADDRINUSE)
            return failStart("bind(): " +
                             std::string(std::strerror(errno)));
        // A socket file already exists. Probe it: a live daemon
        // accepts the connect and we refuse to fight it; a dead
        // daemon's leftover refuses, and we sweep it — the socket
        // equivalent of the cache's stale-temp-file sweep.
        const int probe =
            ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        const bool live =
            probe != -1 &&
            ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
        if (probe != -1)
            ::close(probe);
        if (live) {
            // We never bound the path: drop the fd now so no later
            // teardown can unlink the live daemon's socket file.
            ::close(listen_fd_);
            listen_fd_ = -1;
            return failStart("another daemon is already listening on '" +
                             options_.socket_path + "'");
        }
        PP_INFORM("pipesimd: sweeping stale socket '",
                  options_.socket_path, "' left by a dead daemon");
        serverMetrics().socket_swept.add();
        ::unlink(options_.socket_path.c_str());
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) == -1) {
            return failStart("bind() after sweeping stale socket: " +
                             std::string(std::strerror(errno)));
        }
    }
    owns_socket_ = true;
    if (::listen(listen_fd_, 512) == -1)
        return failStart("listen(): " +
                         std::string(std::strerror(errno)));

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) == -1)
        return failStart("pipe2(): " +
                         std::string(std::strerror(errno)));
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];

    if (!options_.access_log.empty()) {
        std::string alerror;
        if (!access_log_.open(options_.access_log, &alerror))
            return failStart(alerror);
    }

    started_at_ = std::chrono::steady_clock::now();

    scheduler_ = std::thread([this] { schedulerLoop(); });
    return true;
}

int
SweepServer::serve()
{
    ioLoop();
    if (scheduler_.joinable())
        scheduler_.join();
    PP_INFORM("pipesimd: drained cleanly after ", requestsCompleted(),
              " request(s)");
    return 0;
}

void
SweepServer::requestShutdown()
{
    shutdown_requested_.store(true, std::memory_order_relaxed);
    // Wake the poller; a full pipe already guarantees a wake-up.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_write_fd_, &byte, 1);
}

void
SweepServer::wake()
{
    const char byte = 0;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_write_fd_, &byte, 1);
}

void
SweepServer::respond(std::uint64_t conn_id, std::string data)
{
    {
        const std::lock_guard<std::mutex> lock(outbox_mutex_);
        outbox_.emplace_back(conn_id, std::move(data));
    }
    wake();
}

bool
SweepServer::drainComplete()
{
    if (!draining_)
        return false;
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        if (!scheduler_exited_)
            return false;
    }
    {
        const std::lock_guard<std::mutex> lock(outbox_mutex_);
        if (!outbox_.empty())
            return false;
    }
    for (const auto &[id, conn] : connections_) {
        if (!conn.out.empty())
            return false;
    }
    return true;
}

void
SweepServer::ioLoop()
{
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn; // conn id per fds[] entry, 0 = none

    while (true) {
        if (shutdown_requested_.load(std::memory_order_relaxed) &&
            !draining_) {
            draining_ = true;
            ::close(listen_fd_);
            listen_fd_ = -1;
            if (owns_socket_) {
                ::unlink(options_.socket_path.c_str());
                // A successor may bind the path from here on; the
                // destructor must not unlink it out from under them.
                owns_socket_ = false;
            }
            // Only now can the scheduler's exit be safe: draining_ is
            // set on this thread, so no further handleLine admission
            // can happen after this point.
            std::lock_guard<std::mutex> lock(queue_mutex_);
            drain_confirmed_ = true;
            queue_cv_.notify_all();
        }

        // Route scheduler responses into connection buffers.
        {
            std::vector<std::pair<std::uint64_t, std::string>> ready;
            {
                const std::lock_guard<std::mutex> lock(outbox_mutex_);
                ready.swap(outbox_);
            }
            for (auto &[conn_id, data] : ready) {
                const auto it = connections_.find(conn_id);
                if (it == connections_.end())
                    continue; // client went away; drop the response
                it->second.out += data;
                if (it->second.inflight > 0)
                    --it->second.inflight;
            }
        }

        if (drainComplete())
            break;

        fds.clear();
        fd_conn.clear();
        fds.push_back({wake_read_fd_, POLLIN, 0});
        fd_conn.push_back(0);
        if (listen_fd_ != -1) {
            fds.push_back({listen_fd_, POLLIN, 0});
            fd_conn.push_back(0);
        }
        for (const auto &[id, conn] : connections_) {
            short events = POLLIN;
            if (!conn.out.empty())
                events |= POLLOUT;
            fds.push_back({conn.fd, events, 0});
            fd_conn.push_back(id);
        }

        // Normally the loop blocks until I/O; with the idle timeout
        // armed and at least one connection sitting mid-line, poll
        // must wake when the earliest such connection expires — a
        // slow-loris peer by definition produces no event to wake on.
        int poll_timeout = -1;
        if (options_.idle_timeout_ms > 0) {
            const auto now = std::chrono::steady_clock::now();
            for (const auto &[id, conn] : connections_) {
                if (conn.in.empty() || conn.inflight > 0 ||
                    conn.close_after_flush)
                    continue;
                const double idle_ms =
                    std::chrono::duration<double, std::milli>(
                        now - conn.last_read)
                        .count();
                const double remaining =
                    static_cast<double>(options_.idle_timeout_ms) -
                    idle_ms;
                const int ms =
                    remaining <= 0.0 ? 0
                                     : static_cast<int>(remaining) + 1;
                poll_timeout = poll_timeout < 0
                                   ? ms
                                   : std::min(poll_timeout, ms);
            }
        }

        if (::poll(fds.data(), fds.size(), poll_timeout) == -1) {
            if (errno == EINTR)
                continue;
            PP_WARN("pipesimd: poll(): ", std::strerror(errno));
            continue;
        }

        std::vector<std::uint64_t> to_close;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if (fds[i].fd == wake_read_fd_) {
                char buf[256];
                while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
                }
                continue;
            }
            if (listen_fd_ != -1 && fds[i].fd == listen_fd_) {
                while (true) {
                    const int fd = ::accept(listen_fd_, nullptr, nullptr);
                    if (fd == -1)
                        break;
                    if (!setNonBlocking(fd)) {
                        ::close(fd);
                        continue;
                    }
                    Connection conn;
                    conn.fd = fd;
                    conn.last_read = std::chrono::steady_clock::now();
                    ucred cred{};
                    socklen_t cred_len = sizeof(cred);
                    if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED,
                                     &cred, &cred_len) == 0) {
                        conn.peer = "pid:" + std::to_string(cred.pid) +
                                    ",uid:" + std::to_string(cred.uid);
                    }
                    connections_[next_conn_id_++] = std::move(conn);
                    serverMetrics().conns.add();
                }
                continue;
            }

            const std::uint64_t conn_id = fd_conn[i];
            const auto it = connections_.find(conn_id);
            if (it == connections_.end())
                continue;
            Connection &conn = it->second;

            if (fds[i].revents & (POLLERR | POLLNVAL)) {
                to_close.push_back(conn_id);
                continue;
            }

            if (fds[i].revents & (POLLIN | POLLHUP)) {
                char buf[4096];
                while (true) {
                    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
                    if (n > 0) {
                        conn.in.append(buf, static_cast<std::size_t>(n));
                        conn.last_read =
                            std::chrono::steady_clock::now();
                    } else if (n == 0) {
                        // Half-close: the client is done sending but
                        // may still be reading. In-flight requests
                        // keep the connection alive until answered.
                        conn.peer_eof = true;
                        break;
                    } else {
                        if (errno != EAGAIN && errno != EWOULDBLOCK)
                            conn.peer_eof = true;
                        break;
                    }
                }

                std::size_t start = 0;
                while (true) {
                    const std::size_t nl = conn.in.find('\n', start);
                    if (nl == std::string::npos)
                        break;
                    handleLine(conn_id, conn,
                               conn.in.substr(start, nl - start));
                    start = nl + 1;
                }
                conn.in.erase(0, start);

                // A line longer than the frame limit cannot be
                // re-synchronized (no newline yet): answer once and
                // close after the error flushes.
                if (conn.in.size() > options_.max_line_bytes &&
                    !conn.close_after_flush) {
                    serverMetrics().rejected.add();
                    conn.out += errorResponseLine(
                        "", proto_error::kPayloadTooLarge,
                        "request line exceeds " +
                            std::to_string(options_.max_line_bytes) +
                            " bytes");
                    if (access_log_.enabled()) {
                        AccessLog::Entry entry;
                        entry.peer = conn.peer;
                        entry.kind = "invalid";
                        entry.outcome = proto_error::kPayloadTooLarge;
                        access_log_.write(entry);
                    }
                    conn.close_after_flush = true;
                    conn.in.clear();
                    ::shutdown(conn.fd, SHUT_RD);
                }
            }

            if ((fds[i].revents & POLLOUT) && !conn.out.empty()) {
                const ssize_t n =
                    ::write(conn.fd, conn.out.data(), conn.out.size());
                if (n > 0) {
                    conn.out.erase(0, static_cast<std::size_t>(n));
                } else if (n == -1 && errno != EAGAIN &&
                           errno != EWOULDBLOCK) {
                    to_close.push_back(conn_id);
                    continue;
                }
            }
        }

        // Slow-loris expiry: drop connections that sat mid-line past
        // the idle timeout. Closed outright, no error line — a peer
        // dribbling bytes to hold the fd is not owed a flush, and
        // buffering a response for a non-reading peer is exactly the
        // resource leak this defends against.
        if (options_.idle_timeout_ms > 0) {
            const auto now = std::chrono::steady_clock::now();
            for (const auto &[id, conn] : connections_) {
                if (conn.in.empty() || conn.inflight > 0 ||
                    conn.close_after_flush)
                    continue;
                const double idle_ms =
                    std::chrono::duration<double, std::milli>(
                        now - conn.last_read)
                        .count();
                if (idle_ms >=
                    static_cast<double>(options_.idle_timeout_ms)) {
                    serverMetrics().idle_closed.add();
                    PP_INFORM("pipesimd: closing connection ",
                              conn.peer.empty() ? "(unknown peer)"
                                                : conn.peer,
                              " idle mid-line for ",
                              static_cast<std::uint64_t>(idle_ms),
                              " ms");
                    to_close.push_back(id);
                }
            }
        }

        // A connection closes only once nothing is owed to it:
        // responses flushed AND no admitted request still running.
        // This is what "zero dropped in-flight requests" rests on.
        for (const auto &[id, conn] : connections_) {
            if ((conn.peer_eof || conn.close_after_flush) &&
                conn.out.empty() && conn.inflight == 0)
                to_close.push_back(id);
        }

        for (const std::uint64_t id : to_close) {
            const auto it = connections_.find(id);
            if (it != connections_.end()) {
                ::close(it->second.fd);
                connections_.erase(it);
            }
        }
    }
}

void
SweepServer::handleLine(std::uint64_t conn_id, Connection &conn,
                        const std::string &line)
{
    const auto parse_begin = std::chrono::steady_clock::now();
    std::string text = line;
    if (!text.empty() && text.back() == '\r')
        text.pop_back();
    if (text.empty())
        return;

    // Every refused request still gets an access-log line: the log
    // accounts for everything the daemon *answered*, not only what it
    // served, or a post-mortem cannot tell "dropped" from "rejected".
    const auto logRefusal = [&](const ServerRequest &request,
                                const std::string &kind,
                                const std::string &outcome) {
        if (!access_log_.enabled())
            return;
        AccessLog::Entry entry;
        entry.trace_id = request.trace_id;
        entry.id = request.id;
        entry.peer = conn.peer;
        entry.kind = kind;
        entry.workload = request.workload;
        entry.outcome = outcome;
        entry.phases.parse_us = elapsedUs(parse_begin);
        entry.total_us = entry.phases.parse_us;
        access_log_.write(entry);
    };

    if (text.size() > options_.max_line_bytes) {
        serverMetrics().rejected.add();
        conn.out += errorResponseLine(
            "", proto_error::kPayloadTooLarge,
            "request line exceeds " +
                std::to_string(options_.max_line_bytes) + " bytes");
        logRefusal(ServerRequest{}, "invalid",
                   proto_error::kPayloadTooLarge);
        conn.close_after_flush = true;
        return;
    }

    ServerRequest request;
    std::string code, message;
    if (!parseServerRequest(text, &request, &code, &message)) {
        serverMetrics().rejected.add();
        conn.out += errorResponseLine(request.id, code, message,
                                      request.trace_id);
        logRefusal(request, "invalid", code);
        return;
    }

    // Correlation id: echo the client's or mint one at admission, so
    // every response line, span tag and access-log entry of this
    // request carries the same handle.
    if (request.trace_id.empty()) {
        request.trace_id = "pd-" + std::to_string(::getpid()) + "-" +
                           std::to_string(++next_trace_seq_);
    }
    const double parse_us = elapsedUs(parse_begin);

    // stats/health answer inline on the I/O thread: they read daemon
    // state, never touch the engine, and must stay answerable while a
    // long grid occupies the scheduler. health answers even during a
    // drain — that is exactly when a probe needs to see "draining".
    if (request.type == ServerRequest::Type::Stats ||
        request.type == ServerRequest::Type::Health) {
        const auto serialize_begin = std::chrono::steady_clock::now();
        if (request.type == ServerRequest::Type::Health) {
            serverMetrics().health_probes.add();
            conn.out += healthResponseLine(
                request.id, request.trace_id,
                draining_ ? "draining" : "serving", uptimeSeconds());
        } else {
            serverMetrics().stats_probes.add();
            conn.out += statsResponseLine(request.id, request.trace_id,
                                          buildStats());
        }
        PhaseTimings phases;
        phases.parse_us = parse_us;
        phases.serialize_us = elapsedUs(serialize_begin);
        recordPhases(request.kindName(), phases);
        if (access_log_.enabled()) {
            AccessLog::Entry entry;
            entry.trace_id = request.trace_id;
            entry.id = request.id;
            entry.peer = conn.peer;
            entry.kind = request.kindName();
            entry.outcome = "ok";
            entry.phases = phases;
            entry.total_us = elapsedUs(parse_begin);
            access_log_.write(entry);
        }
        return;
    }

    if (draining_) {
        serverMetrics().rejected.add();
        conn.out += errorResponseLine(
            request.id, proto_error::kShuttingDown,
            "daemon is draining; request not admitted",
            request.trace_id);
        logRefusal(request, request.kindName(),
                   proto_error::kShuttingDown);
        return;
    }

    bool overloaded = false;
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        if (queue_.size() >= options_.max_queue) {
            overloaded = true;
        } else {
            Pending pending;
            pending.conn_id = conn_id;
            pending.peer = conn.peer;
            pending.arrival = std::chrono::steady_clock::now();
            pending.parse_us = parse_us;
            pending.request = request; // keep for the refusal path
            queue_.push_back(std::move(pending));
            serverMetrics().queue_depth.set(
                static_cast<std::int64_t>(queue_.size()));
        }
    }
    if (overloaded) {
        serverMetrics().rejected.add();
        conn.out += errorResponseLine(
            request.id, proto_error::kOverloaded,
            "admission queue full (" +
                std::to_string(options_.max_queue) + " requests)",
            request.trace_id);
        logRefusal(request, request.kindName(),
                   proto_error::kOverloaded);
        return;
    }
    ++conn.inflight;
    serverMetrics().admitted.add();
    queue_cv_.notify_one();
}

void
SweepServer::schedulerLoop()
{
    while (true) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] {
                return !queue_.empty() || drain_confirmed_;
            });
            if (queue_.empty() && drain_confirmed_)
                break;
            batch.swap(queue_);
            serverMetrics().queue_depth.set(0);
            scheduler_busy_ = true;
        }
        executeBatch(std::move(batch),
                     std::chrono::steady_clock::now());
        {
            const std::lock_guard<std::mutex> lock(queue_mutex_);
            scheduler_busy_ = false;
        }
        wake();
    }
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        scheduler_exited_ = true;
    }
    wake();
}

StatsInfo
SweepServer::buildStats()
{
    StatsInfo info;
    info.status = draining_ ? "draining" : "serving";
    info.uptime_s = uptimeSeconds();
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        info.queue_depth = queue_.size();
    }
    for (const auto &[id, conn] : connections_)
        info.in_flight += conn.inflight;
    info.connections = connections_.size();
    info.completed = requestsCompleted();
    return info;
}

double
SweepServer::uptimeSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - started_at_)
        .count();
}

void
SweepServer::executeBatch(std::vector<Pending> batch,
                          std::chrono::steady_clock::time_point pickup)
{
    serverMetrics().batches.add();

    const auto baseEntry = [](const Pending &p) {
        AccessLog::Entry entry;
        entry.trace_id = p.request.trace_id;
        entry.id = p.request.id;
        entry.peer = p.peer;
        entry.kind = p.request.kindName();
        entry.workload = p.request.workload;
        entry.shape = p.request.shapeKey();
        entry.phases.parse_us = p.parse_us;
        return entry;
    };

    // Reject what already missed its deadline; everything admitted to
    // an engine run completes even if the deadline passes mid-grid
    // (the results land in the cache either way — aborting would just
    // waste them).
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (auto &p : batch) {
        const double waited = elapsedMs(p.arrival);
        if (p.request.deadline_ms != 0 &&
            waited > static_cast<double>(p.request.deadline_ms)) {
            serverMetrics().deadline.add();
            serverMetrics().rejected.add();
            respond(p.conn_id,
                    errorResponseLine(
                        p.request.id, proto_error::kDeadlineExceeded,
                        "deadline of " +
                            std::to_string(p.request.deadline_ms) +
                            "ms elapsed while queued",
                        p.request.trace_id));
            if (access_log_.enabled()) {
                AccessLog::Entry entry = baseEntry(p);
                entry.outcome = proto_error::kDeadlineExceeded;
                entry.phases.queue_us = waited * 1e3;
                entry.total_us = entry.phases.queue_us + p.parse_us;
                access_log_.write(entry);
            }
            continue;
        }
        live.push_back(std::move(p));
    }

    // Group by option shape; each group is one engine grid over the
    // deduplicated workload set, so concurrent requests for
    // overlapping cells share one fused multi-depth walk.
    std::map<std::string, std::vector<Pending>> groups;
    for (auto &p : live)
        groups[p.request.shapeKey()].push_back(std::move(p));

    for (auto &[shape, members] : groups) {
        std::vector<WorkloadSpec> specs;
        for (const auto &p : members) {
            const bool seen =
                std::any_of(specs.begin(), specs.end(),
                            [&](const WorkloadSpec &s) {
                                return s.name == p.request.workload;
                            });
            if (!seen)
                specs.push_back(findWorkload(p.request.workload));
        }
        const SweepOptions opt = members.front().request.sweepOptions();

        // The outcome of every cell of exactly this grid, for each
        // member's cached/computed counts; the manifest lives for this
        // one call, so nothing accumulates across requests.
        RunManifest grid;
        std::vector<SweepResult> results;
        const auto engine_begin = std::chrono::steady_clock::now();
        {
            TELEM_SPAN(span, "server.batch");
            span.tag("requests", std::to_string(members.size()));
            span.tag("workloads", std::to_string(specs.size()));
            engine_.attachManifest(&grid);
            results = engine_.runGrid(specs, opt);
            engine_.attachManifest(nullptr);
        }
        const double engine_us = elapsedUs(engine_begin);
        const double batch_wait_us =
            std::chrono::duration<double, std::micro>(engine_begin -
                                                      pickup)
                .count();
        // A member's queue phase: its arrival to this batch's pickup.
        const auto queue_us = [&](const Pending &p) {
            return std::chrono::duration<double, std::micro>(pickup -
                                                             p.arrival)
                .count();
        };

        std::map<std::pair<std::string, int>, ManifestCell::Outcome>
            outcomes;
        for (const ManifestCell &cell : grid.cells())
            outcomes[{cell.workload, cell.depth}] = cell.outcome;

        // Adds request @p r's cells to @p into's cells, cached and
        // computed (a DoneInfo or an access-log entry): one count for
        // an answer and a refusal alike.
        const auto countCells = [&](const ServerRequest &r, auto &into) {
            for (int d = r.min_depth; d <= r.max_depth; ++d) {
                ++into.cells;
                const auto oc = outcomes.find({r.workload, d});
                if (oc == outcomes.end())
                    continue;
                if (oc->second == ManifestCell::Outcome::Cached)
                    ++into.cached;
                else if (oc->second == ManifestCell::Outcome::Computed)
                    ++into.computed;
            }
        };

        std::map<std::string, const SweepResult *> by_workload;
        for (const auto &r : results)
            by_workload[r.spec.name] = &r;

        // A request the engine's results cannot answer gets one
        // structured error line, counted and logged as a refusal.
        const auto refuse = [&](const Pending &p, const char *code,
                                const std::string &message) {
            serverMetrics().rejected.add();
            respond(p.conn_id,
                    errorResponseLine(p.request.id, code, message,
                                      p.request.trace_id));
            if (access_log_.enabled()) {
                AccessLog::Entry entry = baseEntry(p);
                entry.outcome = code;
                countCells(p.request, entry);
                entry.phases.queue_us = queue_us(p);
                entry.phases.batch_us = batch_wait_us;
                entry.phases.engine_us = engine_us;
                entry.total_us = elapsedUs(p.arrival) + p.parse_us;
                access_log_.write(entry);
            }
        };

        for (const auto &p : members) {
            const auto sweep_it = by_workload.find(p.request.workload);
            if (sweep_it == by_workload.end()) {
                // The engine assembles no result around a hole. The
                // other cells are cached, so a retry computes only
                // the failed ones.
                std::string depths;
                for (const FailureRecord &f : engine_.lastFailures()) {
                    if (f.workload == p.request.workload)
                        depths += (depths.empty() ? "" : ", ") +
                                  std::to_string(f.depth);
                }
                refuse(p, proto_error::kIncomplete,
                       "cells of " + p.request.workload +
                           " failed at depths " + depths +
                           "; retry to compute them");
                continue;
            }
            const SweepResult *sweep = sweep_it->second;
            const auto serialize_begin =
                std::chrono::steady_clock::now();
            std::string out;
            DoneInfo info;
            info.trace_id = p.request.trace_id;
            countCells(p.request, info);
            if (p.request.type == ServerRequest::Type::Sweep) {
                for (const SimResult &r : sweep->runs) {
                    out += cellResponseLine(
                        p.request.id, p.request.trace_id, r,
                        sweep->power_model.metric(
                            r, p.request.metric_exponent, true));
                }
            }
            // 0 with interior false below 4 depths.
            info.optimum = sweep->cubicFitOptimum(
                p.request.metric_exponent, true, &info.interior);
            // serialize_us covers the cell lines and the fit; the
            // done line itself renders after the clock is read (it
            // must carry the measurement it is part of).
            info.phases.queue_us = queue_us(p);
            info.phases.parse_us = p.parse_us;
            info.phases.batch_us = batch_wait_us;
            info.phases.engine_us = engine_us;
            info.phases.serialize_us = elapsedUs(serialize_begin);
            info.elapsed_ms = elapsedMs(p.arrival);
            out += doneResponseLine(p.request.id, info);

            serverMetrics().completed.add();
            serverMetrics().latency_us.recordSeconds(info.elapsed_ms /
                                                     1e3);
            recordPhases(p.request.kindName(), info.phases);
            requests_completed_.fetch_add(1, std::memory_order_relaxed);
            respond(p.conn_id, std::move(out));

            if (access_log_.enabled()) {
                AccessLog::Entry entry = baseEntry(p);
                entry.outcome = "ok";
                entry.cells = info.cells;
                entry.cached = info.cached;
                entry.computed = info.computed;
                entry.phases = info.phases;
                entry.total_us = info.elapsed_ms * 1e3 + p.parse_us;
                access_log_.write(entry);
            }
            if (options_.slow_ms != 0 &&
                info.elapsed_ms >=
                    static_cast<double>(options_.slow_ms)) {
                serverMetrics().slow.add();
                PP_WARN("pipesimd: slow request trace_id=",
                        p.request.trace_id, " id=", p.request.id,
                        " workload=", p.request.workload,
                        " elapsed_ms=", info.elapsed_ms);
            }
        }
    }
}

} // namespace pipedepth
