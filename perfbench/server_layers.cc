/**
 * @file
 * The server layer (protocol and daemon), measured on catalog_cold's
 * traced run: the built pipesimd, on a fresh private cache, serves the
 * same catalog grid as one `sweep` request per workload, pipelined on
 * one connection. The daemon batches them into runGrid passes; the
 * done lines' phase_us split each request into queue, batch, engine
 * and serialize time, and what the client saw beyond their sum is
 * transport and wake-ups. Every answer is checked byte for byte
 * against the in-process pass.
 */

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "perfbench.hh"
#include "server/protocol.hh"

extern char **environ;

using namespace pipedepth;

namespace perfbench
{
namespace
{

constexpr double kMetricExponent = 3.0; //!< the protocol default
constexpr double kAnswerLimitS = 120.0; //!< a silent daemon after this

/** String field @p key of a response line, read without a full parse. */
std::string
lineField(const std::string &line, const char *key)
{
    const std::string tag = std::string("\"") + key + "\": \"";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + tag.size();
    return line.substr(begin, line.find('"', begin) - begin);
}

/** A running pipesimd; stopped and reaped by the destructor. */
class Daemon
{
  public:
    explicit Daemon(const Options &opt)
        : socket_(opt.work_dir + "/pipesimd.sock"),
          log_(opt.work_dir + "/pipesimd.log")
    {
        if (socket_.size() >= sizeof(sockaddr_un{}.sun_path))
            throw std::runtime_error("socket path too long: " + socket_);
        const std::string cache = opt.work_dir + "/pipesimd-cache";
        freshDir(cache);
        std::vector<std::string> args = {
            opt.daemon,  "--socket", socket_, "--cache-dir", cache,
            "--threads", std::to_string(opt.cores)};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 2, log_.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int rc = ::posix_spawn(&pid_, opt.daemon.c_str(), &actions,
                                     nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw std::runtime_error("cannot spawn " + opt.daemon);

        // pipesimd announces "listening" on stderr once it accepts.
        const double deadline = wallSeconds() + 30.0;
        while (true) {
            std::ifstream in(log_);
            const std::string text((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
            if (text.find("listening") != std::string::npos)
                break;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("pipesimd exited: " + text);
            }
            if (wallSeconds() > deadline) {
                stop();
                throw std::runtime_error("pipesimd did not start");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** SIGTERM, wait for the drain (SIGKILL after 10 s), reap. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        const double deadline = wallSeconds() + 10.0;
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (wallSeconds() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

    const std::string &socket() const { return socket_; }

  private:
    std::string socket_, log_;
    pid_t pid_ = -1;
};

/** One client connection; closed by the destructor. */
class Connection
{
  public:
    explicit Connection(const std::string &socket)
        : fd_(::socket(AF_UNIX, SOCK_STREAM, 0))
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socket.c_str(), sizeof(addr.sun_path) - 1);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof(addr)) != 0) {
            if (fd_ >= 0)
                ::close(fd_);
            throw std::runtime_error("cannot connect to " + socket);
        }
    }

    ~Connection() { ::close(fd_); }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void send(const std::string &line)
    {
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon connection lost");
            off += static_cast<std::size_t>(n);
        }
    }

    /**
     * Hand every response line to @p on_line until @p done() holds;
     * throws when the daemon closes the connection or falls silent.
     */
    template <typename Fn, typename Done>
    void receive(Fn on_line, Done done)
    {
        const double deadline = wallSeconds() + kAnswerLimitS;
        char chunk[65536];
        while (!done()) {
            pollfd pfd{fd_, POLLIN, 0};
            if (wallSeconds() > deadline)
                throw std::runtime_error("daemon stopped answering");
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n <= 0)
                throw std::runtime_error("daemon closed the connection");
            buffer_.append(chunk, static_cast<std::size_t>(n));
            std::size_t start = 0, nl;
            while ((nl = buffer_.find('\n', start)) != std::string::npos) {
                on_line(buffer_.substr(start, nl - start));
                start = nl + 1;
            }
            buffer_.erase(0, start);
        }
    }

  private:
    int fd_;
    std::string buffer_;
};

/** server.request.completed and server.batch.runs, via `stats`. */
std::pair<double, double>
statsCounters(Connection &conn)
{
    conn.send("{\"id\": \"stats\", \"type\": \"stats\"}\n");
    std::string line;
    conn.receive([&](const std::string &l) { line = l; },
                 [&] { return !line.empty(); });
    JsonValue doc;
    const JsonValue *metrics =
        JsonValue::parse(line, &doc) ? doc.find("metrics") : nullptr;
    auto counter = [&](const char *name) {
        const JsonValue *m = metrics ? metrics->find(name) : nullptr;
        const JsonValue *v = m ? m->find("value") : nullptr;
        return v ? v->number : 0.0;
    };
    return {counter("server.request.completed"),
            counter("server.batch.runs")};
}

/** One request of the pass and what came back for it. */
struct Exchange
{
    const SweepResult *expected = nullptr;
    std::string line; //!< exactly what was sent, newline included
    double sent = 0.0, answered_at = 0.0;
    std::string terminal;           //!< done or error line
    std::vector<std::string> cells; //!< cell lines, in arrival order
};

double
phase(const JsonValue &doc, const char *name)
{
    const JsonValue *phases = doc.find("phase_us");
    const JsonValue *v = phases ? phases->find(name) : nullptr;
    return v ? v->number : 0.0;
}

/** "" when @p x answered exactly what @p x.expected says, else why. */
std::string
checkAnswer(const std::string &id, const Exchange &x, JsonValue *doc)
{
    if (!JsonValue::parse(x.terminal, doc))
        return "unparsable answer";
    bool interior = false;
    const double optimum =
        x.expected->cubicFitOptimum(kMetricExponent, true, &interior);
    const JsonValue *got = doc->find("optimum");
    const JsonValue *got_interior = doc->find("interior");
    if (!got || got->number != optimum || !got_interior ||
        got_interior->boolean != interior)
        return "optimum differs";
    std::vector<std::string> cells;
    for (const SimResult &r : x.expected->runs) {
        cells.push_back(cellResponseLine(
            id, id, r,
            x.expected->power_model.metric(r, kMetricExponent, true)));
    }
    return x.cells == cells ? "" : "cell lines differ";
}

} // namespace

ServerLayers
measureServerLayers(const Options &opt, const SweepOptions &so,
                    const std::vector<SweepResult> &expected, Report &report)
{
    std::map<std::string, Exchange> exchanges; // by request id
    std::vector<std::string> ids;
    for (std::size_t i : seededOrder(expected.size(), opt.seed)) {
        const SweepResult &s = expected[i];
        const std::string id = "c" + std::to_string(ids.size());
        Exchange x;
        x.expected = &s;
        x.line = "{\"id\": " + jsonQuote(id) + ", \"trace_id\": " +
                 jsonQuote(id) + ", \"type\": \"sweep\", \"workload\": " +
                 jsonQuote(s.spec.name) +
                 ", \"min_depth\": " + std::to_string(so.min_depth) +
                 ", \"max_depth\": " + std::to_string(so.max_depth) +
                 ", \"reference_depth\": " +
                 std::to_string(so.reference_depth) +
                 ", \"trace_length\": " + std::to_string(so.trace_length) +
                 ", \"warmup\": " + std::to_string(so.warmup_instructions) +
                 "}\n";
        exchanges.emplace(id, std::move(x));
        ids.push_back(id);
    }

    Daemon daemon(opt);
    std::size_t open = ids.size();
    std::pair<double, double> before, after;
    {
        Connection conn(daemon.socket());
        before = statsCounters(conn);
        for (const std::string &id : ids) {
            Exchange &x = exchanges.at(id);
            conn.send(x.line);
            x.sent = wallSeconds();
        }
        conn.receive(
            [&](const std::string &line) {
                const auto it = exchanges.find(lineField(line, "id"));
                if (it == exchanges.end())
                    return;
                if (lineField(line, "type") == "cell") {
                    it->second.cells.push_back(line + "\n");
                    return;
                }
                it->second.terminal = line;
                it->second.answered_at = wallSeconds();
                --open;
            },
            [&] { return open == 0; });
        after = statsCounters(conn);
    }
    daemon.stop();

    ServerLayers s;
    std::vector<double> queue, batch, engine, serialize, unattributed;
    std::map<std::string, std::size_t> errors;
    for (const std::string &id : ids) {
        const Exchange &x = exchanges.at(id);
        ++report.attempted;
        if (lineField(x.terminal, "type") != "done") {
            ++report.failed;
            ++errors[lineField(x.terminal, "code")];
            continue;
        }
        if (x.terminal.find("\"holes\": 0,") == std::string::npos) {
            ++report.failed; // a quarantined cell: a hole, not a mismatch
            ++errors["hole"];
            continue;
        }
        JsonValue doc;
        const std::string why = checkAnswer(id, x, &doc);
        if (!why.empty()) {
            report.mismatch("pipesimd " + x.expected->spec.name + ": " + why);
            continue;
        }
        const double phases_ms =
            (phase(doc, "queue") + phase(doc, "parse") + phase(doc, "batch") +
             phase(doc, "engine") + phase(doc, "serialize")) /
            1e3;
        queue.push_back(phase(doc, "queue") / 1e3);
        batch.push_back(phase(doc, "batch") / 1e3);
        engine.push_back(phase(doc, "engine") / 1e3);
        serialize.push_back(phase(doc, "serialize") / 1e3);
        unattributed.push_back(1e3 * (x.answered_at - x.sent) - phases_ms);
    }
    for (const auto &[code, n] : errors)
        report.notes.push_back("failed: " + code + " x" + std::to_string(n));

    s.queue_p99_ms = percentile(queue, 99.0);
    s.batch_p50_ms = median(batch);
    s.engine_p50_ms = median(engine);
    s.serialize_p50_ms = median(serialize);
    s.unattributed_p50_ms = median(unattributed);
    s.requests_per_pass = after.second > before.second
                              ? (after.first - before.first) /
                                    (after.second - before.second)
                              : 0.0;

    double parse_s = 0.0;
    for (const std::string &id : ids) {
        const std::string &line = exchanges.at(id).line;
        ServerRequest parsed;
        std::string code, message;
        const std::string text = line.substr(0, line.size() - 1);
        const double t0 = threadCpuSeconds();
        parseServerRequest(text, &parsed, &code, &message);
        parse_s += threadCpuSeconds() - t0;
    }
    s.parse_us = 1e6 * parse_s / static_cast<double>(ids.size());
    return s;
}

} // namespace perfbench
