#include "telemetry/manifest.hh"

#include <ctime>
#include <fstream>
#include <map>
#include <sstream>

#include "common/failpoint.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "telemetry/build_info.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"

namespace pipedepth
{

namespace
{

std::string
isoUtcNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

const char *
metricKindName(MetricSnapshot::Kind kind)
{
    switch (kind) {
      case MetricSnapshot::Kind::Counter:
        return "counter";
      case MetricSnapshot::Kind::Gauge:
        return "gauge";
      case MetricSnapshot::Kind::Histogram:
        return "histogram";
    }
    return "counter";
}

/** Serialize one snapshot vector as the manifest's metrics object. */
void
writeMetricsObject(std::ostringstream &os,
                   const std::vector<MetricSnapshot> &metrics)
{
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const MetricSnapshot &m = metrics[i];
        os << (i ? "," : "") << "\n    " << jsonQuote(m.name) << ": {";
        os << "\"kind\": \"" << metricKindName(m.kind) << "\"";
        switch (m.kind) {
          case MetricSnapshot::Kind::Counter:
            os << ", \"value\": " << m.count;
            break;
          case MetricSnapshot::Kind::Gauge:
            os << ", \"value\": " << m.gauge;
            break;
          case MetricSnapshot::Kind::Histogram:
            os << ", \"count\": " << m.count << ", \"sum\": " << m.sum
               << ", \"buckets\": [";
            for (std::size_t b = 0; b < m.buckets.size(); ++b) {
                os << (b ? ", " : "") << "[" << m.buckets[b].first << ", "
                   << m.buckets[b].second << "]";
            }
            os << "]";
            break;
        }
        os << "}";
    }
    os << (metrics.empty() ? "" : "\n  ") << "}";
}

/** Stable wire name of a cell outcome. */
const char *
manifestOutcomeName(ManifestCell::Outcome outcome)
{
    switch (outcome) {
      case ManifestCell::Outcome::Computed:
        return "computed";
      case ManifestCell::Outcome::Cached:
        return "cached";
      case ManifestCell::Outcome::Quarantined:
        return "quarantined";
    }
    return "computed";
}

} // namespace

RunManifest::RunManifest() : created_at_(isoUtcNow()) {}

void
RunManifest::setTool(const std::string &name)
{
    tool_ = name;
}

void
RunManifest::setArgv(int argc, const char *const *argv)
{
    argv_.assign(argv, argv + argc);
}

void
RunManifest::addMeta(const std::string &key, const std::string &value)
{
    meta_.emplace_back(key, value);
}

void
RunManifest::recordCell(const ManifestCell &cell)
{
    cells_.push_back(cell);
}

std::string
RunManifest::toJson() const
{
    const std::vector<MetricSnapshot> metrics =
        MetricsRegistry::instance().snapshot();
    const std::map<std::string, SpanRollup> spans =
        SpanTracer::instance().rollups();

    std::ostringstream os;
    os << "{\n";
    os << "  \"schema_version\": " << kSchemaVersion << ",\n";
    os << "  \"tool\": " << jsonQuote(tool_) << ",\n";
    os << "  \"status\": \"complete\",\n";
    os << "  \"git\": " << jsonQuote(gitDescribe()) << ",\n";
    os << "  \"created_at\": " << jsonQuote(created_at_) << ",\n";

    os << "  \"argv\": [";
    for (std::size_t i = 0; i < argv_.size(); ++i)
        os << (i ? ", " : "") << jsonQuote(argv_[i]);
    os << "],\n";

    os << "  \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        os << (i ? "," : "") << "\n    " << jsonQuote(meta_[i].first)
           << ": " << jsonQuote(meta_[i].second);
    }
    os << (meta_.empty() ? "" : "\n  ") << "},\n";

    std::uint64_t computed = 0, cached = 0, quarantined = 0;
    for (const ManifestCell &c : cells_) {
        switch (c.outcome) {
          case ManifestCell::Outcome::Computed: ++computed; break;
          case ManifestCell::Outcome::Cached: ++cached; break;
          case ManifestCell::Outcome::Quarantined: ++quarantined; break;
        }
    }
    os << "  \"cell_counts\": {\"total\": " << cells_.size()
       << ", \"computed\": " << computed << ", \"cached\": " << cached
       << ", \"quarantined\": " << quarantined << "},\n";

    os << "  \"cells\": [";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const ManifestCell &c = cells_[i];
        os << (i ? "," : "") << "\n    {\"workload\": "
           << jsonQuote(c.workload) << ", \"depth\": " << c.depth
           << ", \"outcome\": \"" << manifestOutcomeName(c.outcome)
           << "\", \"instructions\": " << c.instructions << "}";
    }
    os << (cells_.empty() ? "" : "\n  ") << "],\n";

    os << "  \"metrics\": ";
    writeMetricsObject(os, metrics);
    os << ",\n";

    os << "  \"spans\": {";
    std::size_t i = 0;
    for (const auto &[name, r] : spans) {
        os << (i++ ? "," : "") << "\n    " << jsonQuote(name)
           << ": {\"count\": " << r.count << ", \"total_us\": "
           << r.total_us << "}";
    }
    os << (spans.empty() ? "" : "\n  ") << "}\n";
    os << "}\n";
    return os.str();
}

bool
RunManifest::write(const std::string &path) const
{
    const std::string json = toJson();
    // Injected manifest-write fault: same path as an unwritable file.
    std::ofstream out;
    if (!PP_FAILPOINT_FIRED("manifest.write"))
        out.open(path, std::ios::trunc);
    if (!out.is_open()) {
        PP_WARN("cannot write manifest to '", path, "'");
        return false;
    }
    out << json;
    out.flush();
    if (!out) {
        PP_WARN("short write of manifest '", path, "'");
        return false;
    }
    return true;
}

namespace
{

bool
failValidation(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

} // namespace

bool
validateManifest(const JsonValue &manifest, std::string *error)
{
    if (!manifest.isObject())
        return failValidation(error, "manifest is not a JSON object");

    const JsonValue *version = manifest.find("schema_version");
    if (!version || !version->isNumber())
        return failValidation(error, "schema_version missing");
    if (version->number != RunManifest::kSchemaVersion) {
        return failValidation(
            error, "schema_version " + jsonNumber(version->number) +
                       " does not match supported version " +
                       std::to_string(RunManifest::kSchemaVersion));
    }

    for (const char *key : {"tool", "git", "created_at", "status"}) {
        const JsonValue *v = manifest.find(key);
        if (!v || !v->isString())
            return failValidation(error,
                                  std::string(key) + " missing or not a "
                                                     "string");
    }
    const JsonValue *status = manifest.find("status");
    if (status->string != "complete" && status->string != "interrupted")
        return failValidation(error, "status must be complete or "
                                     "interrupted");

    const JsonValue *argv = manifest.find("argv");
    if (!argv || !argv->isArray())
        return failValidation(error, "argv missing or not an array");
    for (const JsonValue &arg : argv->array) {
        if (!arg.isString())
            return failValidation(error, "argv entry is not a string");
    }

    const JsonValue *meta = manifest.find("meta");
    if (!meta || !meta->isObject())
        return failValidation(error, "meta missing or not an object");

    const JsonValue *counts = manifest.find("cell_counts");
    if (!counts || !counts->isObject())
        return failValidation(error, "cell_counts missing");
    for (const char *key : {"total", "computed", "cached", "quarantined"}) {
        const JsonValue *v = counts->find(key);
        if (!v || !v->isNumber())
            return failValidation(error, std::string("cell_counts.") +
                                             key + " missing");
    }

    const JsonValue *cells = manifest.find("cells");
    if (!cells || !cells->isArray())
        return failValidation(error, "cells missing or not an array");
    for (const JsonValue &cell : cells->array) {
        const JsonValue *workload = cell.find("workload");
        const JsonValue *depth = cell.find("depth");
        const JsonValue *outcome = cell.find("outcome");
        const JsonValue *instructions = cell.find("instructions");
        if (!workload || !workload->isString() || !depth ||
            !depth->isNumber() || !instructions ||
            !instructions->isNumber()) {
            return failValidation(error, "cell entry incomplete");
        }
        if (!outcome || !outcome->isString() ||
            (outcome->string != "computed" &&
             outcome->string != "cached" &&
             outcome->string != "quarantined")) {
            return failValidation(error, "cell outcome invalid");
        }
    }

    const JsonValue *total = counts->find("total");
    if (total && total->number !=
                     static_cast<double>(cells->array.size())) {
        return failValidation(error,
                              "cell_counts.total disagrees with cells[]");
    }

    for (const char *key : {"metrics", "spans"}) {
        const JsonValue *v = manifest.find(key);
        if (!v || !v->isObject())
            return failValidation(error, std::string(key) +
                                             " missing or not an object");
    }
    return true;
}

} // namespace pipedepth
