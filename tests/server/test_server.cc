/**
 * @file
 * Contract tests for the pipesimd daemon (`ctest -L server`).
 *
 * Every test talks to a real daemon subprocess over its AF_UNIX
 * socket — the PIPESIMD_PATH compile definition points at the built
 * binary — because the contract under test is the wire behaviour:
 * malformed input of every kind (truncated JSON, unknown fields,
 * out-of-range depths, oversized payloads) must yield a structured
 * error line, never a dropped connection or a dead daemon, and a
 * well-formed follow-up must succeed on both the same and a fresh
 * connection. The fixture's TearDown doubles as the drain contract:
 * SIGTERM must produce exit status 0 and unlink the socket.
 *
 * The byte-identity test pins the daemon to the batch tool's
 * numbers: a daemon sweep must reproduce exactly what a local
 * SweepEngine computes for the same options, bit for bit — the
 * daemon is a transport in front of the engine, not a second
 * implementation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "sweep/sweep_engine.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

namespace fs = std::filesystem;

constexpr std::size_t kMaxLineBytes = 512;

class ServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/pp_server_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        socket_path_ = (dir_ / "pipesimd.sock").string();
        cache_dir_ = (dir_ / "cache").string();
        access_log_path_ = (dir_ / "access.jsonl").string();
        daemon_log_path_ = (dir_ / "daemon.log").string();

        const std::string max_line = std::to_string(kMaxLineBytes);
        std::vector<std::string> args = {
            PIPESIMD_PATH, "--socket", socket_path_, "--cache-dir",
            cache_dir_, "--max-line-bytes", max_line, "--access-log",
            access_log_path_, "--slow-ms", slow_ms_, "--idle-timeout-ms",
            idle_timeout_ms_};
        args.insert(args.end(), extra_args_.begin(), extra_args_.end());
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        daemon_pid_ = ::fork();
        ASSERT_NE(daemon_pid_, -1);
        if (daemon_pid_ == 0) {
            // The daemon's stderr goes to a file so the slow-request
            // mirror is assertable post-drain.
            const int log_fd =
                ::open(daemon_log_path_.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (log_fd != -1) {
                ::dup2(log_fd, 2);
                ::close(log_fd);
            }
            ::execv(PIPESIMD_PATH, argv.data());
            _exit(127);
        }

        // The daemon prints its listening banner after bind; a
        // successful connect is the portable ready signal.
        bool up = false;
        for (int i = 0; i < 200 && !up; ++i) {
            const int fd = tryConnect();
            if (fd != -1) {
                ::close(fd);
                up = true;
            } else {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(25));
            }
        }
        ASSERT_TRUE(up) << "pipesimd did not come up";
    }

    void
    TearDown() override
    {
        if (daemon_pid_ > 0) {
            EXPECT_EQ(stopDaemon(), 0)
                << "daemon did not drain cleanly";
        }
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    /** SIGTERM the daemon and reap it; returns its exit status. */
    int
    stopDaemon()
    {
        ::kill(daemon_pid_, SIGTERM);
        int status = 0;
        ::waitpid(daemon_pid_, &status, 0);
        daemon_pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    int
    tryConnect() const
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socket_path_.size() >= sizeof(addr.sun_path))
            return -1;
        std::memcpy(addr.sun_path, socket_path_.c_str(),
                    socket_path_.size() + 1);
        const int fd =
            ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd == -1)
            return -1;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == -1) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    /**
     * Send @p payload on a fresh connection, half-close, and read
     * every response line until the daemon closes the stream.
     */
    std::vector<std::string>
    transact(const std::string &payload) const
    {
        const int fd = tryConnect();
        EXPECT_NE(fd, -1) << "daemon refused a connection";
        if (fd == -1)
            return {};
        std::size_t off = 0;
        while (off < payload.size()) {
            const ssize_t n = ::write(fd, payload.data() + off,
                                      payload.size() - off);
            if (n <= 0)
                break;
            off += static_cast<std::size_t>(n);
        }
        ::shutdown(fd, SHUT_WR);

        std::string buf;
        char chunk[65536];
        ssize_t n = 0;
        while ((n = ::read(fd, chunk, sizeof(chunk))) > 0)
            buf.append(chunk, static_cast<std::size_t>(n));
        ::close(fd);

        std::vector<std::string> lines;
        std::size_t start = 0;
        while (start < buf.size()) {
            const std::size_t nl = buf.find('\n', start);
            if (nl == std::string::npos)
                break;
            lines.push_back(buf.substr(start, nl - start));
            start = nl + 1;
        }
        return lines;
    }

    static JsonValue
    parseLine(const std::string &line)
    {
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(JsonValue::parse(line, &doc, &error))
            << line << ": " << error;
        EXPECT_TRUE(doc.isObject()) << line;
        return doc;
    }

    static std::string
    field(const JsonValue &doc, const std::string &name)
    {
        const JsonValue *v = doc.find(name);
        return v != nullptr && v->isString() ? v->string : "";
    }

    static std::string
    goodRequest(const std::string &id)
    {
        return "{\"id\": \"" + id +
               "\", \"type\": \"sweep\", \"workload\": \"db1\", "
               "\"min_depth\": 2, \"max_depth\": 5, "
               "\"reference_depth\": 3, \"trace_length\": 15000, "
               "\"warmup\": 1500}\n";
    }

    /** Assert @p line is an error response with @p code for @p id. */
    static void
    expectError(const std::string &line, const std::string &id,
                const std::string &code)
    {
        const JsonValue doc = parseLine(line);
        EXPECT_EQ(field(doc, "id"), id);
        EXPECT_EQ(field(doc, "type"), "error");
        EXPECT_EQ(field(doc, "code"), code);
        EXPECT_FALSE(field(doc, "message").empty());
    }

    /** Assert the lines are a full sweep response: cells + done. */
    void
    expectGoodSweep(const std::vector<std::string> &lines,
                    const std::string &id) const
    {
        ASSERT_EQ(lines.size(), 5u) << "4 cells + done expected";
        for (std::size_t i = 0; i < 4; ++i) {
            const JsonValue doc = parseLine(lines[i]);
            EXPECT_EQ(field(doc, "id"), id);
            EXPECT_EQ(field(doc, "type"), "cell");
        }
        const JsonValue done = parseLine(lines.back());
        EXPECT_EQ(field(done, "id"), id);
        EXPECT_EQ(field(done, "type"), "done");
    }

    /** Whole file as parsed JSONL lines (skips blank lines). */
    static std::vector<JsonValue>
    readJsonl(const std::string &path)
    {
        std::vector<JsonValue> docs;
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (f == nullptr)
            return docs;
        std::string text;
        char chunk[4096];
        std::size_t n = 0;
        while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
            text.append(chunk, n);
        std::fclose(f);
        std::size_t start = 0;
        while (start < text.size()) {
            const std::size_t nl = text.find('\n', start);
            if (nl == std::string::npos)
                break;
            const std::string line = text.substr(start, nl - start);
            start = nl + 1;
            if (line.empty())
                continue;
            JsonValue doc;
            EXPECT_TRUE(JsonValue::parse(line, &doc)) << line;
            docs.push_back(std::move(doc));
        }
        return docs;
    }

    /**
     * Access-log lines for @p id. The scheduler writes the entry just
     * after queuing the response, so a client that read its done line
     * can race the file append by a few microseconds — poll briefly.
     */
    std::vector<JsonValue>
    accessEntriesFor(const std::string &id) const
    {
        for (int attempt = 0; attempt < 100; ++attempt) {
            std::vector<JsonValue> match;
            for (auto &doc : readJsonl(access_log_path_)) {
                const JsonValue *v = doc.find("id");
                if (v != nullptr && v->isString() && v->string == id)
                    match.push_back(std::move(doc));
            }
            if (!match.empty())
                return match;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return {};
    }

    fs::path dir_;
    std::string socket_path_;
    std::string cache_dir_;
    std::string access_log_path_;
    std::string daemon_log_path_;
    /**
     * Threshold for the --slow-ms mirror. High enough by default that
     * no test request trips it; SlowMirrorServerTest lowers it.
     */
    std::string slow_ms_ = "60000";
    /** Slow-loris timeout; 0 = off. IdleTimeoutServerTest sets it. */
    std::string idle_timeout_ms_ = "0";
    /** Further daemon flags; UncalibratedServerTest arms a fault. */
    std::vector<std::string> extra_args_;
    pid_t daemon_pid_ = -1;
};

TEST_F(ServerTest, GoodSweepStreamsCellsThenDone)
{
    const auto lines = transact(goodRequest("q1"));
    expectGoodSweep(lines, "q1");

    const JsonValue done = parseLine(lines.back());
    const JsonValue *cells = done.find("cells");
    ASSERT_NE(cells, nullptr);
    EXPECT_EQ(static_cast<int>(cells->number), 4);
    const JsonValue *holes = done.find("holes");
    ASSERT_NE(holes, nullptr);
    EXPECT_EQ(static_cast<int>(holes->number), 0);
}

TEST_F(ServerTest, TruncatedJsonGetsStructuredError)
{
    const auto lines = transact("{\"id\": \"t1\", \"type\":\n");
    ASSERT_EQ(lines.size(), 1u);
    const JsonValue doc = parseLine(lines[0]);
    EXPECT_EQ(field(doc, "type"), "error");
    EXPECT_EQ(field(doc, "code"), proto_error::kBadJson);

    // The daemon survives malformed input: a well-formed follow-up
    // on a fresh connection succeeds.
    expectGoodSweep(transact(goodRequest("t2")), "t2");
}

TEST_F(ServerTest, UnknownFieldIsRejectedByName)
{
    const auto lines = transact(
        "{\"id\": \"u1\", \"type\": \"sweep\", \"workload\": "
        "\"db1\", \"frobnicate\": 1}\n");
    ASSERT_EQ(lines.size(), 1u);
    expectError(lines[0], "u1", proto_error::kBadRequest);
    EXPECT_NE(parseLine(lines[0]).find("message")->string.find(
                  "frobnicate"),
              std::string::npos);
}

TEST_F(ServerTest, BadLineThenGoodLineOnOneConnection)
{
    // Per-line framing: an error must poison only its own line, not
    // the connection.
    const auto lines =
        transact("{\"id\": \"m1\", \"nope\": true}\n" +
                 goodRequest("m2"));
    ASSERT_GE(lines.size(), 2u);
    // The error can interleave before, between or after the sweep
    // lines; find it by id.
    std::size_t errors = 0;
    std::size_t cells = 0;
    std::size_t dones = 0;
    for (const auto &line : lines) {
        const JsonValue doc = parseLine(line);
        if (field(doc, "id") == "m1") {
            EXPECT_EQ(field(doc, "type"), "error");
            ++errors;
        } else {
            EXPECT_EQ(field(doc, "id"), "m2");
            if (field(doc, "type") == "cell")
                ++cells;
            else if (field(doc, "type") == "done")
                ++dones;
        }
    }
    EXPECT_EQ(errors, 1u);
    EXPECT_EQ(cells, 4u);
    EXPECT_EQ(dones, 1u);
}

TEST_F(ServerTest, OutOfRangeDepthsAreRejected)
{
    const auto bad_range = [&](const std::string &body) {
        const auto lines = transact("{\"id\": \"r\", \"type\": "
                                    "\"sweep\", \"workload\": "
                                    "\"db1\", " +
                                    body + "}\n");
        ASSERT_EQ(lines.size(), 1u);
        expectError(lines[0], "r", proto_error::kBadRange);
    };
    bad_range("\"min_depth\": 50, \"max_depth\": 60");
    bad_range("\"min_depth\": 5, \"max_depth\": 3");
    bad_range("\"min_depth\": 2, \"max_depth\": 10, "
              "\"reference_depth\": 25");
    bad_range("\"trace_length\": 10");
    bad_range("\"trace_length\": 2000, \"warmup\": 2000");
}

TEST_F(ServerTest, UnknownWorkloadIsRejected)
{
    const auto lines =
        transact("{\"id\": \"w1\", \"type\": \"sweep\", "
                 "\"workload\": \"no_such_workload\"}\n");
    ASSERT_EQ(lines.size(), 1u);
    expectError(lines[0], "w1", proto_error::kUnknownWorkload);
}

TEST_F(ServerTest, OversizedPayloadIsRejected)
{
    // A terminated line over --max-line-bytes: structured error,
    // daemon keeps serving.
    std::string big = "{\"id\": \"big\", \"type\": \"sweep\", "
                      "\"workload\": \"";
    big.append(2 * kMaxLineBytes, 'x');
    big += "\"}\n";
    const auto lines = transact(big);
    ASSERT_GE(lines.size(), 1u);
    const JsonValue doc = parseLine(lines[0]);
    EXPECT_EQ(field(doc, "type"), "error");
    EXPECT_EQ(field(doc, "code"), proto_error::kPayloadTooLarge);

    expectGoodSweep(transact(goodRequest("after-big")), "after-big");
}

TEST_F(ServerTest, OversizedUnterminatedLineClosesConnection)
{
    // Without a newline the stream cannot re-synchronize: the daemon
    // answers payload_too_large and hangs up — but stays alive.
    std::string big(2 * kMaxLineBytes, 'y');
    const auto lines = transact(big); // no newline, no SHUT_WR needed
    ASSERT_GE(lines.size(), 1u);
    const JsonValue doc = parseLine(lines[0]);
    EXPECT_EQ(field(doc, "code"), proto_error::kPayloadTooLarge);

    expectGoodSweep(transact(goodRequest("after-flood")),
                    "after-flood");
}

TEST_F(ServerTest, DaemonResultsMatchLocalEngineExactly)
{
    const auto lines = transact(goodRequest("x1"));
    expectGoodSweep(lines, "x1");

    // The same options through a local engine (cache off: force a
    // fresh computation) must yield bit-identical numbers — the
    // daemon fronts the one engine, it is not a reimplementation.
    SweepEngineOptions eopt;
    eopt.use_cache = false;
    SweepEngine engine(eopt);
    SweepOptions sopt;
    sopt.min_depth = 2;
    sopt.max_depth = 5;
    sopt.reference_depth = 3;
    sopt.trace_length = 15000;
    sopt.warmup_instructions = 1500;
    const SweepResult local =
        engine.runSweep(findWorkload("db1"), sopt);
    ASSERT_EQ(local.runs.size(), 4u);

    for (std::size_t i = 0; i < 4; ++i) {
        const JsonValue doc = parseLine(lines[i]);
        const SimResult &r = local.runs[i];
        EXPECT_EQ(static_cast<int>(doc.find("depth")->number),
                  r.depth);
        EXPECT_EQ(static_cast<std::uint64_t>(
                      doc.find("cycles")->number),
                  r.cycles);
        EXPECT_EQ(static_cast<std::uint64_t>(
                      doc.find("instructions")->number),
                  r.instructions);
        EXPECT_DOUBLE_EQ(doc.find("bips")->number, r.bips());
        EXPECT_DOUBLE_EQ(
            doc.find("metric")->number,
            local.power_model.metric(r, 3.0, true));
    }
}

TEST_F(ServerTest, OptimumOverThreeDepthsAnswersZero)
{
    // Three cells leave a cubic undetermined: the done line carries
    // "no optimum" as 0 and interior false, with the daemon alive.
    const auto lines = transact(
        "{\"id\": \"o1\", \"type\": \"optimum\", \"workload\": "
        "\"db1\", \"min_depth\": 2, \"max_depth\": 4, "
        "\"reference_depth\": 3, \"trace_length\": 15000, "
        "\"warmup\": 1500}\n");
    ASSERT_EQ(lines.size(), 1u);
    const JsonValue done = parseLine(lines[0]);
    EXPECT_EQ(field(done, "id"), "o1");
    EXPECT_EQ(field(done, "type"), "done");
    EXPECT_EQ(static_cast<int>(done.find("cells")->number), 3);
    EXPECT_NE(lines[0].find("\"holes\": 0, \"optimum\": 0, "
                            "\"interior\": false, "),
              std::string::npos)
        << lines[0];

    expectGoodSweep(transact(goodRequest("after-optimum")),
                    "after-optimum");
}

TEST_F(ServerTest, FailedSecondStartLeavesLiveSocketIntact)
{
    // A second daemon on a path where one is already live must refuse
    // to start — and its teardown must not unlink the live daemon's
    // socket file (the regression: ~SweepServer unlinked whenever
    // listen_fd_ was open, so an accidental second start deleted the
    // socket the probe had just declined to fight over, cutting off
    // every future client).
    {
        ServerOptions opt;
        opt.socket_path = socket_path_;
        opt.cache_dir = (dir_ / "cache2").string();
        SweepServer second(opt);
        std::string error;
        EXPECT_FALSE(second.start(&error));
        EXPECT_NE(error.find("already listening"), std::string::npos)
            << error;
    } // ~SweepServer of the refused daemon runs here

    EXPECT_TRUE(fs::exists(socket_path_));
    expectGoodSweep(transact(goodRequest("still-up")), "still-up");
}

TEST(ServerLifecycle, StartThenDestroyWithoutServeDoesNotHang)
{
    // Library use: start() without serve(). The I/O loop is never
    // there to confirm the drain, so the destructor itself must
    // release the scheduler thread (the regression: schedulerLoop
    // waited on queue_cv_ forever and join() hung).
    char tmpl[] = "/tmp/pp_server_lc_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const fs::path dir = tmpl;
    const std::string socket = (dir / "d.sock").string();
    {
        ServerOptions opt;
        opt.socket_path = socket;
        opt.use_cache = false;
        SweepServer server(opt);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
    }
    // The owner that bound the socket unlinks it on teardown.
    EXPECT_FALSE(fs::exists(socket));
    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST_F(ServerTest, SigtermUnlinksSocketAndExitsZero)
{
    expectGoodSweep(transact(goodRequest("d1")), "d1");
    EXPECT_EQ(stopDaemon(), 0);
    EXPECT_FALSE(fs::exists(socket_path_));
    EXPECT_EQ(tryConnect(), -1);
}

TEST(ServerProtocol, StatsRejectsSweepFieldsByName)
{
    // The inline verbs take no sweep parameters; a stats request
    // smuggling one is a client bug and must be named, not ignored.
    ServerRequest req;
    std::string code, message;
    EXPECT_TRUE(parseServerRequest(
        "{\"id\": \"s\", \"type\": \"stats\"}", &req, &code,
        &message));
    EXPECT_EQ(req.type, ServerRequest::Type::Stats);

    EXPECT_FALSE(parseServerRequest(
        "{\"id\": \"s\", \"type\": \"stats\", \"workload\": \"db1\"}",
        &req, &code, &message));
    EXPECT_EQ(code, proto_error::kBadRequest);
    EXPECT_NE(message.find("workload"), std::string::npos) << message;

    EXPECT_FALSE(parseServerRequest(
        "{\"id\": \"h\", \"type\": \"health\", \"min_depth\": 2}",
        &req, &code, &message));
    EXPECT_EQ(code, proto_error::kBadRequest);
    EXPECT_NE(message.find("min_depth"), std::string::npos) << message;
}

TEST_F(ServerTest, StatsAndHealthAnswerUnderConcurrentLoad)
{
    // Inline verbs are answered on the I/O thread: they must get a
    // response even while sweeps occupy the scheduler.
    std::vector<std::thread> sweeps;
    for (int i = 0; i < 3; ++i) {
        sweeps.emplace_back([this, i] {
            expectGoodSweep(
                transact(goodRequest("load-" + std::to_string(i))),
                "load-" + std::to_string(i));
        });
    }

    const auto stats =
        transact("{\"id\": \"st\", \"type\": \"stats\"}\n");
    ASSERT_EQ(stats.size(), 1u);
    const JsonValue sdoc = parseLine(stats[0]);
    EXPECT_EQ(field(sdoc, "id"), "st");
    EXPECT_EQ(field(sdoc, "type"), "stats");
    EXPECT_EQ(field(sdoc, "status"), "serving");
    EXPECT_FALSE(field(sdoc, "git").empty());
    ASSERT_NE(sdoc.find("uptime_s"), nullptr);
    EXPECT_GE(sdoc.find("uptime_s")->number, 0.0);
    ASSERT_NE(sdoc.find("cache"), nullptr);
    EXPECT_TRUE(sdoc.find("cache")->isObject());
    const JsonValue *metrics = sdoc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isObject());
    EXPECT_NE(metrics->find("server.conn.accepted"), nullptr);

    const auto health =
        transact("{\"id\": \"he\", \"type\": \"health\"}\n");
    ASSERT_EQ(health.size(), 1u);
    const JsonValue hdoc = parseLine(health[0]);
    EXPECT_EQ(field(hdoc, "id"), "he");
    EXPECT_EQ(field(hdoc, "type"), "health");
    EXPECT_EQ(field(hdoc, "status"), "serving");
    // The cheap probe must not drag the registry snapshot along.
    EXPECT_EQ(hdoc.find("metrics"), nullptr);

    for (auto &t : sweeps)
        t.join();
}

TEST_F(ServerTest, ClientTraceIdEchoedOnEveryLine)
{
    const std::string req =
        "{\"id\": \"t1\", \"trace_id\": \"cli-trace-42\", "
        "\"type\": \"sweep\", \"workload\": \"db1\", "
        "\"min_depth\": 2, \"max_depth\": 5, "
        "\"reference_depth\": 3, \"trace_length\": 15000, "
        "\"warmup\": 1500}\n";
    const auto lines = transact(req);
    expectGoodSweep(lines, "t1");
    for (const std::string &line : lines)
        EXPECT_EQ(field(parseLine(line), "trace_id"), "cli-trace-42")
            << line;

    const auto entries = accessEntriesFor("t1");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(field(entries[0], "trace_id"), "cli-trace-42");
    EXPECT_EQ(field(entries[0], "outcome"), "ok");
}

TEST_F(ServerTest, GeneratedTraceIdIsStableAcrossLines)
{
    const auto lines = transact(goodRequest("g1"));
    expectGoodSweep(lines, "g1");
    const std::string trace = field(parseLine(lines[0]), "trace_id");
    EXPECT_EQ(trace.rfind("pd-", 0), 0u)
        << "daemon-minted ids carry the pd- prefix: " << trace;
    for (const std::string &line : lines)
        EXPECT_EQ(field(parseLine(line), "trace_id"), trace) << line;
}

TEST_F(ServerTest, AccessLogLineSchemaIsPinned)
{
    expectGoodSweep(transact(goodRequest("al1")), "al1");
    const auto entries = accessEntriesFor("al1");
    ASSERT_EQ(entries.size(), 1u);
    const JsonValue &doc = entries[0];

    // The exact ordered key set is the schema other tooling (CI's
    // exactly-once audit, jq one-liners in the docs) depends on.
    const std::vector<std::string> expected = {
        "ts_us",     "trace_id", "id",        "peer",
        "kind",      "workload", "shape",     "cells",
        "cached",    "computed", "holes",     "queue_us",
        "parse_us",  "batch_us", "engine_us", "serialize_us",
        "total_us",  "outcome"};
    std::vector<std::string> keys;
    for (const auto &[key, value] : doc.object)
        keys.push_back(key);
    EXPECT_EQ(keys, expected);

    EXPECT_EQ(field(doc, "kind"), "sweep");
    EXPECT_EQ(field(doc, "workload"), "db1");
    EXPECT_EQ(field(doc, "outcome"), "ok");
    EXPECT_EQ(doc.find("peer")->string.rfind("pid:", 0), 0u);
    EXPECT_EQ(static_cast<int>(doc.find("cells")->number), 4);
    EXPECT_GT(doc.find("engine_us")->number, 0.0);
    EXPECT_GT(doc.find("total_us")->number, 0.0);
}

TEST_F(ServerTest, AccessLogCoversEveryRequestExactlyOnce)
{
    // Served, refused and probe requests each get exactly one line;
    // the drained log accounts for everything the daemon answered.
    expectGoodSweep(transact(goodRequest("c1")), "c1");
    expectGoodSweep(transact(goodRequest("c2")), "c2");
    transact("{\"id\": \"bad\", \"type\": \"nope\"}\n");
    transact("{\"id\": \"pr\", \"type\": \"stats\"}\n");
    EXPECT_EQ(stopDaemon(), 0);

    const auto docs = readJsonl(access_log_path_);
    ASSERT_EQ(docs.size(), 4u);
    std::map<std::string, int> by_id;
    for (const auto &doc : docs)
        ++by_id[field(doc, "id")];
    EXPECT_EQ(by_id["c1"], 1);
    EXPECT_EQ(by_id["c2"], 1);
    EXPECT_EQ(by_id["bad"], 1);
    EXPECT_EQ(by_id["pr"], 1);
    for (const auto &doc : docs) {
        if (field(doc, "id") == "bad") {
            EXPECT_EQ(field(doc, "kind"), "invalid");
            EXPECT_EQ(field(doc, "outcome"),
                      proto_error::kBadRequest);
        }
    }
}

/** Same daemon, but with a 1ms slow-request mirror threshold. */
class SlowMirrorServerTest : public ServerTest
{
  protected:
    SlowMirrorServerTest() { slow_ms_ = "1"; }
};

TEST_F(SlowMirrorServerTest, SlowRequestMirroredExactlyOnce)
{
    const std::string req =
        "{\"id\": \"slow1\", \"trace_id\": \"slow-trace-1\", "
        "\"type\": \"sweep\", \"workload\": \"db1\", "
        "\"min_depth\": 2, \"max_depth\": 5, "
        "\"reference_depth\": 3, \"trace_length\": 15000, "
        "\"warmup\": 1500}\n";
    expectGoodSweep(transact(req), "slow1");
    // A cheap probe must never trip the mirror, whatever the
    // threshold — it is a grid-request feature.
    transact("{\"id\": \"pr\", \"type\": \"health\"}\n");
    EXPECT_EQ(stopDaemon(), 0);

    std::FILE *f = std::fopen(daemon_log_path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string log;
    char chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        log.append(chunk, n);
    std::fclose(f);

    std::size_t mirrors = 0;
    for (std::size_t at = log.find("slow request");
         at != std::string::npos;
         at = log.find("slow request", at + 1))
        ++mirrors;
    EXPECT_EQ(mirrors, 1u) << log;
    EXPECT_NE(log.find("trace_id=slow-trace-1"), std::string::npos)
        << log;
}

/** Same daemon, with a 200ms slow-loris idle timeout armed. */
class IdleTimeoutServerTest : public ServerTest
{
  protected:
    IdleTimeoutServerTest() { idle_timeout_ms_ = "200"; }
};

TEST_F(IdleTimeoutServerTest, MidLineStallIsClosedKeepAliveIsNot)
{
    // Open a legitimate keep-alive first: no bytes sent, so however
    // long it idles it must never be expired.
    const int keep = tryConnect();
    ASSERT_NE(keep, -1);

    // The slow loris: bytes buffered, no newline, nothing in flight.
    // The daemon must close it once it idles past the timeout —
    // observable as EOF on our side, with no error line first.
    const int loris = tryConnect();
    ASSERT_NE(loris, -1);
    const char half[] = "{\"id\": \"half";
    ASSERT_EQ(::write(loris, half, sizeof(half) - 1),
              static_cast<ssize_t>(sizeof(half) - 1));
    pollfd pfd{};
    pfd.fd = loris;
    pfd.events = POLLIN;
    ASSERT_GT(::poll(&pfd, 1, 5000), 0)
        << "stalled connection was not closed";
    char byte = 0;
    EXPECT_EQ(::read(loris, &byte, 1), 0) << "expected EOF, got data";
    ::close(loris);

    // The expiry is counted: the stats snapshot carries the metric.
    const auto stats =
        transact("{\"id\": \"st\", \"type\": \"stats\"}\n");
    ASSERT_EQ(stats.size(), 1u);
    const JsonValue doc = parseLine(stats[0]);
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const JsonValue *closed = metrics->find("server.conn.idle.closed");
    ASSERT_NE(closed, nullptr) << stats[0];
    EXPECT_GE(closed->find("value")->number, 1.0);

    // Make sure the keep-alive has now idled well past the timeout,
    // then use it: the daemon must still answer on that connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const std::string req = goodRequest("after-idle");
    ASSERT_EQ(::write(keep, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    ::shutdown(keep, SHUT_WR);
    std::string buf;
    char chunk[65536];
    ssize_t n = 0;
    while ((n = ::read(keep, chunk, sizeof(chunk))) > 0)
        buf.append(chunk, static_cast<std::size_t>(n));
    ::close(keep);
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', start);
         nl != std::string::npos; nl = buf.find('\n', start)) {
        lines.push_back(buf.substr(start, nl - start));
        start = nl + 1;
    }
    expectGoodSweep(lines, "after-idle");
}

/**
 * Same daemon, with the fixture request's reference cell failing its
 * only attempt: depth 3 is the second cell the walk's failpoint sees.
 */
class UncalibratedServerTest : public ServerTest
{
  protected:
    UncalibratedServerTest()
    {
        extra_args_ = {"--max-retries", "0", "--failpoint",
                       "sweep.cell.simulate=hits:2"};
    }
};

TEST_F(UncalibratedServerTest, QuarantinedReferenceGetsOneError)
{
    // No cell or done line: without its reference cell the sweep has
    // no leakage calibration, so every metric would be a default.
    const auto lines = transact(goodRequest("u1"));
    ASSERT_EQ(lines.size(), 1u);
    expectError(lines[0], "u1", proto_error::kUncalibrated);
    const std::string message = field(parseLine(lines[0]), "message");
    EXPECT_NE(message.find("reference depth 3"), std::string::npos)
        << message;
    EXPECT_NE(message.find("db1"), std::string::npos) << message;

    const auto entries = accessEntriesFor("u1");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(field(entries[0], "outcome"), proto_error::kUncalibrated);
    // The refusal came after the engine pass: its time is attributed
    // to the phases, which fit inside the total.
    const auto us = [&](const char *key) {
        return entries[0].find(key)->number;
    };
    EXPECT_GT(us("engine_us"), 0.0);
    EXPECT_LE(us("queue_us") + us("parse_us") + us("batch_us") +
                  us("engine_us") + us("serialize_us"),
              us("total_us"));

    // The fault fired once: the next request computes the missing
    // cell and gets a full answer.
    expectGoodSweep(transact(goodRequest("u2")), "u2");
}

} // namespace
} // namespace pipedepth
