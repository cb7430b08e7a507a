#include "sweep/checkpoint.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/failpoint.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/proc.hh"
#include "telemetry/metrics.hh"

namespace pipedepth
{

std::string
SweepCheckpoint::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema_version\": " << kSchemaVersion << ",\n";
    os << "  \"tool\": " << jsonQuote(tool) << ",\n";
    os << "  \"argv\": [";
    for (std::size_t i = 0; i < argv.size(); ++i)
        os << (i ? ", " : "") << jsonQuote(argv[i]);
    os << "],\n";
    os << "  \"config_hash\": " << jsonQuote(config_hash) << ",\n";
    os << "  \"status\": " << jsonQuote(status) << ",\n";
    os << "  \"cells_done\": " << cells_done << ",\n";
    os << "  \"cells_total\": " << cells_total << "\n";
    os << "}\n";
    return os.str();
}

const char *
publishFile(const std::string &path, const std::string &tmp,
            const std::string &content)
{
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (!out)
        return "cannot write";
    const bool written =
        std::fwrite(content.data(), 1, content.size(), out) ==
            content.size() &&
        std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
    const bool closed = std::fclose(out) == 0;
    const char *failed = nullptr;
    if (!written || !closed)
        failed = "short write of";
    else if (std::rename(tmp.c_str(), path.c_str()) != 0)
        failed = "cannot publish";
    if (failed)
        std::remove(tmp.c_str());
    return failed;
}

bool
writeCheckpoint(const std::string &path, const SweepCheckpoint &checkpoint)
{
    const char *failed =
        PP_FAILPOINT_FIRED("checkpoint.write")
            ? "cannot write"
            : publishFile(path, path + ".tmp." + std::to_string(::getpid()),
                          checkpoint.toJson());
    if (failed)
        PP_WARN(failed, " checkpoint '", path, "'");
    return failed == nullptr;
}

namespace
{

bool
failRead(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

/**
 * Is @p filename a `<base>.tmp.<pid>` journal of a dead writer? Same
 * contract as the result cache's stale-temp detection: a parse
 * failure or a live (or EPERM) pid keeps the file.
 */
bool
isStaleCheckpointTemp(const std::string &filename,
                      const std::string &base)
{
    const std::string prefix = base + ".tmp.";
    if (filename.rfind(prefix, 0) != 0)
        return false;
    const char *digits = filename.c_str() + prefix.size();
    char *end = nullptr;
    const unsigned long pid = std::strtoul(digits, &end, 10);
    if (end == digits || *end != '\0' || pid == 0)
        return false;
    if (pid == static_cast<unsigned long>(::getpid()))
        return false;
    return !processAlive(static_cast<pid_t>(pid));
}

} // namespace

std::size_t
sweepStaleCheckpointTempFiles(const std::string &path)
{
    static Counter &swept =
        MetricsRegistry::instance().counter("checkpoint.tmp.sweep");

    const std::filesystem::path target(path);
    const std::string base = target.filename().string();
    if (base.empty())
        return 0;
    std::filesystem::path dir = target.parent_path();
    if (dir.empty())
        dir = ".";

    std::size_t removed = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string filename = entry.path().filename().string();
        if (!isStaleCheckpointTemp(filename, base))
            continue;
        std::error_code remove_ec;
        if (std::filesystem::remove(entry.path(), remove_ec) &&
            !remove_ec) {
            ++removed;
            swept.add();
            PP_DEBUG("checkpoint: swept stale temp file '", filename,
                     "'");
        }
    }
    if (removed) {
        PP_INFORM("checkpoint: swept ", removed,
                  " stale temp file(s) left by dead writers next to '",
                  path, "'");
    }
    return removed;
}

bool
readCheckpoint(const std::string &path, SweepCheckpoint *out,
               std::string *error)
{
    std::ifstream in(path);
    if (!in)
        return failRead(error, "cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();

    JsonValue doc;
    std::string parse_error;
    if (!JsonValue::parse(buf.str(), &doc, &parse_error))
        return failRead(error, "malformed checkpoint: " + parse_error);
    if (!doc.isObject())
        return failRead(error, "checkpoint is not a JSON object");

    const JsonValue *version = doc.find("schema_version");
    if (!version || !version->isNumber())
        return failRead(error, "schema_version missing");
    if (version->number != SweepCheckpoint::kSchemaVersion) {
        return failRead(error,
                        "unsupported checkpoint schema_version " +
                            jsonNumber(version->number) + " (expected " +
                            std::to_string(
                                SweepCheckpoint::kSchemaVersion) +
                            ")");
    }

    const JsonValue *tool = doc.find("tool");
    const JsonValue *config_hash = doc.find("config_hash");
    const JsonValue *status = doc.find("status");
    if (!tool || !tool->isString() || !config_hash ||
        !config_hash->isString() || !status || !status->isString())
        return failRead(error, "tool/config_hash/status missing");
    if (status->string != "running" && status->string != "interrupted" &&
        status->string != "complete")
        return failRead(error,
                        "status '" + status->string + "' unknown");

    const JsonValue *argv = doc.find("argv");
    if (!argv || !argv->isArray())
        return failRead(error, "argv missing or not an array");
    for (const JsonValue &arg : argv->array) {
        if (!arg.isString())
            return failRead(error, "argv entry is not a string");
    }

    const JsonValue *done = doc.find("cells_done");
    const JsonValue *total = doc.find("cells_total");
    if (!done || !done->isNumber() || !total || !total->isNumber())
        return failRead(error, "cells_done/cells_total missing");

    if (out) {
        out->tool = tool->string;
        out->argv.clear();
        for (const JsonValue &arg : argv->array)
            out->argv.push_back(arg.string);
        out->config_hash = config_hash->string;
        out->status = status->string;
        out->cells_done = static_cast<std::uint64_t>(done->number);
        out->cells_total = static_cast<std::uint64_t>(total->number);
    }
    return true;
}

} // namespace pipedepth
