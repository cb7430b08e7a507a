/**
 * @file
 * pipesimd — sweep-as-a-service daemon.
 *
 * Usage:
 *   pipesimd --socket PATH [--threads N] [--no-cache]
 *            [--cache-dir DIR] [--max-queue N] [--max-line-bytes N]
 *            [--idle-timeout-ms N]
 *            [--access-log FILE] [--slow-ms N]
 *            [--failpoint SPEC]
 *
 * --idle-timeout-ms closes connections that sit *mid-line* — bytes
 * buffered, no newline, nothing in flight — longer than N ms
 * (slow-loris hardening; each close counts on
 * `server.conn.idle.closed`). Idle keep-alive connections with an
 * empty input buffer are never expired.
 *
 * Observability (docs/OBSERVABILITY.md): every admitted request
 * carries a trace id (client-sent or daemon-minted) echoed on all its
 * response lines; `stats` and `health` protocol verbs answer in-band
 * (probe with tools/pipesim_stat.cc); --access-log writes one flushed
 * JSONL line per answered request; --slow-ms mirrors requests at or
 * over the threshold to the daemon log. The access log and `stats`
 * are the daemon's record: it keeps no run manifest.
 *
 * Listens on an AF_UNIX stream socket for newline-delimited JSON
 * sweep and optimum-depth queries (protocol: docs/SERVER.md; load
 * harness: tools/pipesim_load.cc). Concurrent requests are batched
 * and deduplicated against the result cache — overlapping
 * workload x depth cells simulate once per batch, in one fused
 * multi-depth walk — and trace/annotation state stays hot across
 * requests.
 *
 * SIGTERM/SIGINT drain gracefully: in-flight and queued requests
 * finish, lines arriving after the signal are refused with
 * "shutting_down", and every connection is flushed. Exit status 0 on
 * a clean drain; the daemon prints "pipesimd: listening on PATH" to
 * stderr once it accepts connections, which is what scripts should
 * wait for. A daemon started in the background of a non-interactive
 * shell ignores SIGINT (POSIX), so scripts stop it with SIGTERM.
 *
 * --failpoint arms the same deterministic fault-injection sites as
 * pipesim (common/failpoint.hh); a cell fault quarantines within the
 * requesting query, which gets an `incomplete` error, and the daemon
 * keeps serving. The hole is never cached, so the next request that
 * needs the cell computes it.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/failpoint.hh"
#include "server/server.hh"

using namespace pipedepth;

namespace
{

SweepServer *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->requestShutdown();
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--threads N] [--no-cache]\n"
        "          [--cache-dir DIR] [--max-queue N]\n"
        "          [--max-line-bytes N] [--idle-timeout-ms N]\n"
        "          [--access-log FILE] [--slow-ms N]\n"
        "          [--failpoint SPEC]\n",
        argv0);
    std::exit(2);
}

/**
 * Lift RLIMIT_NOFILE toward its hard limit: a daemon serving
 * thousands of concurrent clients needs more than the conventional
 * 1024-fd soft default. Best-effort — a refusal just means fewer
 * concurrent connections.
 */
void
raiseFdLimit()
{
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0)
        return;
    if (rl.rlim_cur < rl.rlim_max) {
        rl.rlim_cur = rl.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &rl);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ServerOptions opt;
    std::string failpoint_spec;

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const bool has_value = i + 1 < args.size();
        if (arg == "--socket" && has_value) {
            opt.socket_path = args[++i];
        } else if (arg == "--threads" && has_value) {
            opt.engine_threads = static_cast<unsigned>(
                std::strtoul(args[++i].c_str(), nullptr, 10));
        } else if (arg == "--no-cache") {
            opt.use_cache = false;
        } else if (arg == "--cache-dir" && has_value) {
            opt.cache_dir = args[++i];
        } else if (arg == "--max-queue" && has_value) {
            opt.max_queue = static_cast<std::size_t>(
                std::strtoull(args[++i].c_str(), nullptr, 10));
        } else if (arg == "--max-line-bytes" && has_value) {
            opt.max_line_bytes = static_cast<std::size_t>(
                std::strtoull(args[++i].c_str(), nullptr, 10));
        } else if (arg == "--idle-timeout-ms" && has_value) {
            opt.idle_timeout_ms =
                std::strtoull(args[++i].c_str(), nullptr, 10);
        } else if (arg == "--access-log" && has_value) {
            opt.access_log = args[++i];
        } else if (arg == "--slow-ms" && has_value) {
            opt.slow_ms =
                std::strtoull(args[++i].c_str(), nullptr, 10);
        } else if (arg == "--failpoint" && has_value) {
            failpoint_spec = args[++i];
        } else {
            usage(argv[0]);
        }
    }
    if (opt.socket_path.empty() || opt.max_queue == 0 ||
        opt.max_line_bytes == 0)
        usage(argv[0]);

    if (!failpoint_spec.empty()) {
        std::string error;
        if (!failpoints::configure(failpoint_spec, &error)) {
            std::fprintf(stderr, "%s: bad --failpoint spec: %s\n",
                         argv[0], error.c_str());
            return 2;
        }
    }

    raiseFdLimit();

    SweepServer server(opt);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "%s: cannot start: %s\n", argv[0],
                     error.c_str());
        return 1;
    }

    // A signal drains the daemon: it finishes everything it admitted.
    // See server.hh.
    g_server = &server;
    struct sigaction sa
    {
    };
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN); // write errors are handled per-fd

    std::fprintf(stderr, "pipesimd: listening on %s\n",
                 opt.socket_path.c_str());
    return server.serve();
}
