/**
 * @file
 * pipesim_load — concurrent-client load harness for pipesimd.
 *
 * Usage:
 *   pipesim_load --socket PATH [--clients N] [--trace-length N]
 *                [--out FILE] [--baseline FILE] [--term-pid PID]
 *
 * Drives N concurrent synthetic clients (default 1000; each a thread
 * with its own connection) against a running daemon in two phases:
 *
 *  - cold: every client requests a distinct cell set (the catalog
 *    workloads crossed with per-client trace lengths), so nothing is
 *    in the result cache and the daemon must simulate;
 *  - warm: every client sends the *same* query — the duplicate-heavy
 *    workload the daemon's batching and cache exist for. Deduplicated
 *    cells are served from one pass/the cache; per-request latency
 *    collapses.
 *
 * Per phase the harness records p50/p99 request latency, the
 * cache-hit rate reported on done lines, error counts, and — the
 * invariant everything else rests on — that zero requests were
 * dropped (every request got its done or error line). A request the
 * daemon answers `incomplete` (a cell failed) is sent again on a
 * fresh connection, as the daemon's contract asks, up to
 * kMaxAttempts times; it counts as one request, and its latency
 * covers every attempt.
 *
 * --term-pid PID sends SIGTERM to the daemon after every warm-phase
 * request is in flight, turning the run into a drain test: every
 * request the daemon *admitted* must still be answered (zero dropped
 * on drain), and a fresh connection afterwards must be refused. A
 * line still sitting in a kernel socket buffer when the drain begins
 * is answered with a structured `shutting_down` error by design —
 * the harness counts those separately as "refused" and does not fail
 * on them (only in the drain phase; anywhere else they are errors).
 *
 * Done lines carry per-phase latency attribution (`phase_us`, see
 * server/protocol.hh); the harness aggregates the queue and engine
 * phases into per-phase p50/p99 so a regression can be blamed on
 * "waiting for the scheduler" vs "simulating" without re-running
 * anything.
 *
 * --out FILE writes the measurements as JSON (schema below — version
 * 2, which added the per-phase quantiles; the committed
 * BENCH_server_latency.json at the repo root is a run of this
 * harness). --baseline FILE re-reads such a file and gates: exit 1
 * when the baseline's schema is stale, when any request was dropped
 * or errored, or when the measured warm-over-cold p99 speedup falls
 * below the baseline's min_warm_speedup_p99 floor.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hh"
#include "telemetry/build_info.hh"
#include "workloads/catalog.hh"

using namespace pipedepth;

namespace
{

constexpr int kSchemaVersion = 2;

/** Sends of one request while the daemon answers `incomplete`. */
constexpr int kMaxAttempts = 3;

struct Options
{
    std::string socket_path;
    std::size_t clients = 1000;
    std::size_t trace_length = 20000;
    std::string out;
    std::string baseline;
    long term_pid = 0;
};

/** What one client observed for one request. */
struct Observation
{
    double latency_us = 0.0;
    bool done = false;       //!< done line received
    bool error = false;      //!< error line received
    std::string error_code;  //!< `code` field of the error line
    std::uint64_t cached = 0;
    std::uint64_t computed = 0;
    std::uint64_t holes = 0;
    double queue_us = 0.0;  //!< phase_us.queue of the done line
    double engine_us = 0.0; //!< phase_us.engine of the done line
};

/** Aggregated phase measurements. */
struct PhaseStats
{
    std::size_t requests = 0;
    std::size_t dropped = 0;
    std::size_t errors = 0;
    std::size_t refused = 0; //!< shutting_down during a drain test
    std::uint64_t cached = 0;
    std::uint64_t computed = 0;
    std::uint64_t holes = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    // Daemon-reported attribution: time spent waiting for the
    // scheduler vs inside the engine pass that served the request.
    double queue_p50_us = 0.0;
    double queue_p99_us = 0.0;
    double engine_p50_us = 0.0;
    double engine_p99_us = 0.0;

    double
    hitRate() const
    {
        const std::uint64_t cells = cached + computed;
        return cells == 0
                   ? 0.0
                   : static_cast<double>(cached) /
                         static_cast<double>(cells);
    }
};

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1,
                           rank == 0 ? 0 : rank - 1)];
}

int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd == -1)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == -1) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * One attempt: connect, send the request line, read lines until the
 * matching done or error arrives (or the daemon closes the stream).
 */
void
attempt(const std::string &socket_path, const std::string &request,
        const std::string &id, std::atomic<std::size_t> *sent,
        Observation *obs)
{
    const int fd = connectTo(socket_path);
    if (fd == -1) {
        sent->fetch_add(1, std::memory_order_relaxed);
        return; // counted as dropped
    }
    if (!sendAll(fd, request)) {
        sent->fetch_add(1, std::memory_order_relaxed);
        ::close(fd);
        return;
    }
    sent->fetch_add(1, std::memory_order_relaxed);

    std::string buf;
    char chunk[4096];
    bool finished = false;
    while (!finished) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break; // daemon closed (or failed) before our done line
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        while (!finished) {
            const std::size_t nl = buf.find('\n', start);
            if (nl == std::string::npos)
                break;
            const std::string line = buf.substr(start, nl - start);
            start = nl + 1;
            JsonValue doc;
            if (!JsonValue::parse(line, &doc) || !doc.isObject())
                continue;
            const JsonValue *rid = doc.find("id");
            const JsonValue *type = doc.find("type");
            if (!rid || !type || !rid->isString() ||
                !type->isString() || rid->string != id)
                continue;
            if (type->string == "done") {
                obs->done = true;
                if (const JsonValue *v = doc.find("cached"))
                    obs->cached =
                        static_cast<std::uint64_t>(v->number);
                if (const JsonValue *v = doc.find("computed"))
                    obs->computed =
                        static_cast<std::uint64_t>(v->number);
                if (const JsonValue *v = doc.find("holes"))
                    obs->holes =
                        static_cast<std::uint64_t>(v->number);
                if (const JsonValue *v = doc.find("phase_us")) {
                    if (const JsonValue *q = v->find("queue"))
                        if (q->isNumber())
                            obs->queue_us = q->number;
                    if (const JsonValue *e = v->find("engine"))
                        if (e->isNumber())
                            obs->engine_us = e->number;
                }
                finished = true;
            } else if (type->string == "error") {
                obs->error = true;
                if (const JsonValue *v = doc.find("code"))
                    if (v->isString())
                        obs->error_code = v->string;
                finished = true;
            }
        }
        buf.erase(0, start);
    }
    ::close(fd);
}

/** One client: one request, resent while the daemon answers
 *  `incomplete`; @p sent counts it once. */
void
runClient(const std::string &socket_path, const std::string &request,
          const std::string &id, std::atomic<std::size_t> *sent,
          Observation *obs)
{
    const auto begin = std::chrono::steady_clock::now();
    std::atomic<std::size_t> resent{0}; // not in @p sent
    for (int i = 0; i < kMaxAttempts; ++i) {
        *obs = Observation{};
        attempt(socket_path, request, id, i == 0 ? sent : &resent, obs);
        if (obs->error_code != "incomplete")
            break;
    }
    obs->latency_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - begin)
            .count();
}

/**
 * Run @p requests (one per client) concurrently. When @p term_pid is
 * nonzero, SIGTERM it once every request is in flight — the drain
 * test: a clean daemon answers them all anyway.
 */
PhaseStats
runPhase(const Options &opt,
         const std::vector<std::pair<std::string, std::string>>
             &requests /* (id, line) */)
{
    std::vector<Observation> obs(requests.size());
    std::atomic<std::size_t> sent{0};
    std::vector<std::thread> threads;
    threads.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        threads.emplace_back(runClient, opt.socket_path,
                             requests[i].second, requests[i].first,
                             &sent, &obs[i]);
    }
    if (opt.term_pid != 0) {
        while (sent.load(std::memory_order_relaxed) < requests.size())
            std::this_thread::yield();
        ::kill(static_cast<pid_t>(opt.term_pid), SIGTERM);
    }
    for (auto &t : threads)
        t.join();

    PhaseStats stats;
    stats.requests = requests.size();
    std::vector<double> latencies, queue_waits, engine_times;
    latencies.reserve(obs.size());
    queue_waits.reserve(obs.size());
    engine_times.reserve(obs.size());
    for (const Observation &o : obs) {
        if (o.done) {
            latencies.push_back(o.latency_us);
            queue_waits.push_back(o.queue_us);
            engine_times.push_back(o.engine_us);
            stats.cached += o.cached;
            stats.computed += o.computed;
            stats.holes += o.holes;
        } else if (o.error) {
            // In the drain phase a line not yet admitted when SIGTERM
            // landed is refused with shutting_down — a clean
            // structured refusal the daemon guarantees, not a drop.
            // Gating on zero such lines would assert more than the
            // drain contract promises and fail on kernel-buffer
            // timing.
            if (opt.term_pid != 0 && o.error_code == "shutting_down")
                ++stats.refused;
            else
                ++stats.errors;
        } else {
            ++stats.dropped;
        }
    }
    stats.p50_us = percentile(latencies, 50.0);
    stats.p99_us = percentile(latencies, 99.0);
    stats.queue_p50_us = percentile(queue_waits, 50.0);
    stats.queue_p99_us = percentile(queue_waits, 99.0);
    stats.engine_p50_us = percentile(engine_times, 50.0);
    stats.engine_p99_us = percentile(engine_times, 99.0);
    return stats;
}

std::string
sweepRequestLine(const std::string &id, const std::string &workload,
                 std::size_t trace_length)
{
    std::string line = "{\"id\": " + jsonQuote(id) +
                       ", \"type\": \"sweep\", \"workload\": " +
                       jsonQuote(workload) +
                       ", \"min_depth\": 2, \"max_depth\": 5"
                       ", \"reference_depth\": 3"
                       ", \"trace_length\": " +
                       std::to_string(trace_length) +
                       ", \"warmup\": 2000}\n";
    return line;
}

void
writeResult(std::FILE *f, const Options &opt, const PhaseStats &cold,
            const PhaseStats &warm, double speedup_p50,
            double speedup_p99, bool drain_refused_new)
{
    auto phase = [&](const char *name, const PhaseStats &s) {
        std::fprintf(f,
                     "  \"%s\": {\n"
                     "    \"requests\": %zu,\n"
                     "    \"dropped\": %zu,\n"
                     "    \"errors\": %zu,\n"
                     "    \"refused\": %zu,\n"
                     "    \"holes\": %llu,\n"
                     "    \"p50_us\": %.1f,\n"
                     "    \"p99_us\": %.1f,\n"
                     "    \"queue_p50_us\": %.1f,\n"
                     "    \"queue_p99_us\": %.1f,\n"
                     "    \"engine_p50_us\": %.1f,\n"
                     "    \"engine_p99_us\": %.1f,\n"
                     "    \"hit_rate\": %.4f\n"
                     "  },\n",
                     name, s.requests, s.dropped, s.errors, s.refused,
                     static_cast<unsigned long long>(s.holes),
                     s.p50_us, s.p99_us, s.queue_p50_us,
                     s.queue_p99_us, s.engine_p50_us, s.engine_p99_us,
                     s.hitRate());
    };
    std::fprintf(f, "{\n  \"schema_version\": %d,\n", kSchemaVersion);
    std::fprintf(f, "  \"git\": %s,\n",
                 jsonQuote(gitDescribe()).c_str());
    std::fprintf(f, "  \"clients\": %zu,\n", opt.clients);
    std::fprintf(f, "  \"trace_length\": %zu,\n", opt.trace_length);
    std::fprintf(f, "  \"depth_cells\": 4,\n");
    phase("cold", cold);
    phase("warm", warm);
    std::fprintf(f, "  \"warm_speedup_p50\": %.2f,\n", speedup_p50);
    std::fprintf(f, "  \"warm_speedup_p99\": %.2f,\n", speedup_p99);
    std::fprintf(f, "  \"min_warm_speedup_p99\": 5.0,\n");
    std::fprintf(f, "  \"drain_refused_new\": %s\n",
                 drain_refused_new ? "true" : "false");
    std::fprintf(f, "}\n");
}

/** Exit 1 unless @p path is a current-schema baseline; returns its
 *  warm-speedup floor. */
double
readBaselineFloor(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        std::fprintf(stderr, "baseline '%s' is unreadable\n",
                     path.c_str());
        std::exit(1);
    }
    std::string text;
    char chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        text.append(chunk, n);
    std::fclose(f);

    JsonValue doc;
    std::string error;
    if (!JsonValue::parse(text, &doc, &error) || !doc.isObject()) {
        std::fprintf(stderr, "baseline '%s' is not valid JSON: %s\n",
                     path.c_str(), error.c_str());
        std::exit(1);
    }
    const JsonValue *version = doc.find("schema_version");
    if (!version || !version->isNumber() ||
        static_cast<int>(version->number) != kSchemaVersion) {
        std::fprintf(stderr,
                     "baseline '%s' has a stale schema (expected "
                     "%d); re-run pipesim_load --out to refresh it\n",
                     path.c_str(), kSchemaVersion);
        std::exit(1);
    }
    const JsonValue *floor = doc.find("min_warm_speedup_p99");
    if (!floor || !floor->isNumber() || floor->number <= 0.0) {
        std::fprintf(stderr,
                     "baseline '%s' lacks a positive "
                     "min_warm_speedup_p99\n",
                     path.c_str());
        std::exit(1);
    }
    return floor->number;
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--clients N]\n"
                 "          [--trace-length N] [--out FILE]\n"
                 "          [--baseline FILE] [--term-pid PID]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--socket" && has_value) {
            opt.socket_path = argv[++i];
        } else if (arg == "--clients" && has_value) {
            opt.clients = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--trace-length" && has_value) {
            opt.trace_length = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--out" && has_value) {
            opt.out = argv[++i];
        } else if (arg == "--baseline" && has_value) {
            opt.baseline = argv[++i];
        } else if (arg == "--term-pid" && has_value) {
            opt.term_pid = std::strtol(argv[++i], nullptr, 10);
        } else {
            usage(argv[0]);
        }
    }
    if (opt.socket_path.empty() || opt.clients == 0)
        usage(argv[0]);

    // One fd per concurrent client (plus slack): lift the soft limit.
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 &&
        rl.rlim_cur < rl.rlim_max) {
        rl.rlim_cur = rl.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &rl);
    }
    ::signal(SIGPIPE, SIG_IGN);

    const std::vector<WorkloadSpec> &catalog = workloadCatalog();

    // Cold phase: distinct cells per client — catalog workloads
    // crossed with a per-client trace length, so every request misses
    // the cache and simulates.
    std::vector<std::pair<std::string, std::string>> cold_requests;
    cold_requests.reserve(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
        const std::string id = "cold-" + std::to_string(i);
        const std::string &workload =
            catalog[i % catalog.size()].name;
        const std::size_t length =
            opt.trace_length + 1000 * (i / catalog.size());
        cold_requests.emplace_back(
            id, sweepRequestLine(id, workload, length));
    }

    // Warm phase: the duplicate-query workload — every client asks
    // for the identical cells; dedup and the cache do the work. When
    // --term-pid is set this phase doubles as the SIGTERM drain test.
    std::vector<std::pair<std::string, std::string>> warm_requests;
    warm_requests.reserve(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
        const std::string id = "warm-" + std::to_string(i);
        warm_requests.emplace_back(
            id, sweepRequestLine(id, catalog[0].name,
                                 opt.trace_length));
    }

    Options cold_opt = opt;
    cold_opt.term_pid = 0; // the drain test belongs to the warm phase
    std::fprintf(stderr, "pipesim_load: cold phase, %zu clients\n",
                 opt.clients);
    const PhaseStats cold = runPhase(cold_opt, cold_requests);
    std::fprintf(stderr,
                 "pipesim_load: cold p50 %.0fus p99 %.0fus "
                 "hit-rate %.2f dropped %zu errors %zu\n",
                 cold.p50_us, cold.p99_us, cold.hitRate(),
                 cold.dropped, cold.errors);
    std::fprintf(stderr,
                 "pipesim_load: cold phases queue p50 %.0fus "
                 "p99 %.0fus, engine p50 %.0fus p99 %.0fus\n",
                 cold.queue_p50_us, cold.queue_p99_us,
                 cold.engine_p50_us, cold.engine_p99_us);

    std::fprintf(stderr, "pipesim_load: warm phase, %zu clients%s\n",
                 opt.clients,
                 opt.term_pid ? " (SIGTERM drain test)" : "");
    const PhaseStats warm = runPhase(opt, warm_requests);
    std::fprintf(stderr,
                 "pipesim_load: warm p50 %.0fus p99 %.0fus "
                 "hit-rate %.2f dropped %zu errors %zu refused %zu\n",
                 warm.p50_us, warm.p99_us, warm.hitRate(),
                 warm.dropped, warm.errors, warm.refused);
    std::fprintf(stderr,
                 "pipesim_load: warm phases queue p50 %.0fus "
                 "p99 %.0fus, engine p50 %.0fus p99 %.0fus\n",
                 warm.queue_p50_us, warm.queue_p99_us,
                 warm.engine_p50_us, warm.engine_p99_us);

    // After a drain the socket is unlinked: a fresh connection must
    // be refused.
    bool drain_refused_new = false;
    if (opt.term_pid != 0) {
        for (int attempt = 0; attempt < 100; ++attempt) {
            const int fd = connectTo(opt.socket_path);
            if (fd == -1) {
                drain_refused_new = true;
                break;
            }
            ::close(fd);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }

    const double speedup_p50 =
        warm.p50_us > 0.0 ? cold.p50_us / warm.p50_us : 0.0;
    const double speedup_p99 =
        warm.p99_us > 0.0 ? cold.p99_us / warm.p99_us : 0.0;
    std::fprintf(stderr,
                 "pipesim_load: warm speedup p50 %.1fx p99 %.1fx\n",
                 speedup_p50, speedup_p99);

    if (!opt.out.empty()) {
        std::FILE *f = opt.out == "-"
                           ? stdout
                           : std::fopen(opt.out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         opt.out.c_str());
            return 1;
        }
        writeResult(f, opt, cold, warm, speedup_p50, speedup_p99,
                    drain_refused_new);
        if (f != stdout)
            std::fclose(f);
    }

    int status = 0;
    if (cold.dropped || warm.dropped) {
        std::fprintf(stderr,
                     "pipesim_load: FAIL — %zu request(s) dropped\n",
                     cold.dropped + warm.dropped);
        status = 1;
    }
    if (cold.errors || warm.errors) {
        std::fprintf(stderr,
                     "pipesim_load: FAIL — %zu request(s) errored\n",
                     cold.errors + warm.errors);
        status = 1;
    }
    if (opt.term_pid != 0 && !drain_refused_new) {
        std::fprintf(stderr,
                     "pipesim_load: FAIL — daemon still accepting "
                     "after SIGTERM drain\n");
        status = 1;
    }
    if (!opt.baseline.empty()) {
        const double floor = readBaselineFloor(opt.baseline);
        if (speedup_p99 < floor) {
            std::fprintf(stderr,
                         "pipesim_load: FAIL — warm p99 speedup "
                         "%.2fx below the baseline floor %.2fx\n",
                         speedup_p99, floor);
            status = 1;
        }
    }
    return status;
}
