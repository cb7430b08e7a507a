/**
 * @file
 * pipesim_stat — one-shot observability probe for a running pipesimd.
 *
 * Usage:
 *   pipesim_stat --socket PATH [--json] [--health] [--id ID]
 *
 * Sends one in-band `stats` request (docs/SERVER.md) and renders the
 * snapshot for a human: daemon status, uptime, queue/in-flight depth,
 * lifetime completions, and every non-empty metric
 * (histograms with their p50/p99 estimates). --json prints the raw
 * response line instead, for scripts and CI.
 *
 * --health sends the cheap `health` probe instead and prints the
 * status. Exit codes are load-balancer-shaped: 0 when the daemon is
 * serving, 1 when it answered but is draining, 2 when it is
 * unreachable or the response is malformed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hh"

using namespace pipedepth;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--json] [--health]\n"
                 "          [--id ID]\n",
                 argv0);
    std::exit(2);
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

/** Send @p request, return the first full response line ("" on error). */
std::string
transact(const std::string &socket_path, const std::string &request)
{
    const int fd = connectTo(socket_path);
    if (fd == -1)
        return "";
    std::size_t off = 0;
    while (off < request.size()) {
        const ssize_t n = ::write(fd, request.data() + off,
                                  request.size() - off);
        if (n <= 0) {
            ::close(fd);
            return "";
        }
        off += static_cast<std::size_t>(n);
    }
    std::string buf;
    char chunk[4096];
    while (buf.find('\n') == std::string::npos) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const std::size_t nl = buf.find('\n');
    return nl == std::string::npos ? "" : buf.substr(0, nl);
}

double
numberOf(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    return v && v->isNumber() ? v->number : 0.0;
}

std::string
stringOf(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    return v && v->isString() ? v->string : "";
}

void
printStats(const JsonValue &doc)
{
    std::printf("status:      %s\n", stringOf(doc, "status").c_str());
    std::printf("uptime:      %.1fs\n", numberOf(doc, "uptime_s"));
    std::printf("git:         %s\n", stringOf(doc, "git").c_str());
    std::printf("sim_version: %s\n",
                stringOf(doc, "sim_version").c_str());
    std::printf("queue_depth: %.0f\n", numberOf(doc, "queue_depth"));
    std::printf("in_flight:   %.0f\n", numberOf(doc, "in_flight"));
    std::printf("connections: %.0f\n", numberOf(doc, "connections"));
    std::printf("completed:   %.0f\n", numberOf(doc, "completed"));
    const JsonValue *metrics = doc.find("metrics");
    if (!metrics || !metrics->isObject())
        return;
    std::printf("metrics:\n");
    for (const auto &[name, m] : metrics->object) {
        if (!m.isObject())
            continue;
        const std::string kind = stringOf(m, "kind");
        if (kind == "histogram") {
            const double count = numberOf(m, "count");
            if (count == 0.0)
                continue;
            std::printf("  %-42s n=%-8.0f p50=%-10.0f p99=%.0f\n",
                        name.c_str(), count, numberOf(m, "p50"),
                        numberOf(m, "p99"));
        } else {
            const double value = numberOf(m, "value");
            if (value == 0.0)
                continue;
            std::printf("  %-42s %.0f\n", name.c_str(), value);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string id = "pipesim_stat";
    bool json = false;
    bool health = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--socket" && has_value)
            socket_path = argv[++i];
        else if (arg == "--id" && has_value)
            id = argv[++i];
        else if (arg == "--json")
            json = true;
        else if (arg == "--health")
            health = true;
        else
            usage(argv[0]);
    }
    if (socket_path.empty())
        usage(argv[0]);

    const std::string request =
        "{\"id\": " + jsonQuote(id) + ", \"type\": \"" +
        (health ? "health" : "stats") + "\"}\n";
    const std::string line = transact(socket_path, request);
    if (line.empty()) {
        std::fprintf(stderr,
                     "pipesim_stat: no response from daemon on '%s'\n",
                     socket_path.c_str());
        return 2;
    }

    JsonValue doc;
    if (!JsonValue::parse(line, &doc) || !doc.isObject() ||
        stringOf(doc, "type") == "error") {
        std::fprintf(stderr, "pipesim_stat: daemon answered: %s\n",
                     line.c_str());
        return 2;
    }

    if (json)
        std::printf("%s\n", line.c_str());
    else if (health)
        std::printf("status: %s (uptime %.1fs)\n",
                    stringOf(doc, "status").c_str(),
                    numberOf(doc, "uptime_s"));
    else
        printStats(doc);

    return stringOf(doc, "status") == "serving" ? 0 : 1;
}
