#include "server/protocol.hh"

#include <cmath>
#include <sstream>

#include "common/json.hh"
#include "sweep/cache_key.hh"
#include "telemetry/build_info.hh"
#include "telemetry/metrics.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{

namespace
{

bool
fail(std::string *error_code, std::string *error_message,
     const char *code, const std::string &message)
{
    if (error_code)
        *error_code = code;
    if (error_message)
        *error_message = message;
    return false;
}

/** Non-negative integral JSON number into @p out, else false. */
bool
readCount(const JsonValue &v, std::uint64_t *out)
{
    if (!v.isNumber() || v.number < 0.0 ||
        v.number != std::floor(v.number) || v.number > 1e15)
        return false;
    *out = static_cast<std::uint64_t>(v.number);
    return true;
}

} // namespace

const char *
ServerRequest::kindName() const
{
    switch (type) {
      case Type::Sweep:
        return "sweep";
      case Type::Optimum:
        return "optimum";
      case Type::Stats:
        return "stats";
    }
    return "sweep";
}

SweepOptions
ServerRequest::sweepOptions() const
{
    SweepOptions opt;
    opt.min_depth = min_depth;
    opt.max_depth = max_depth;
    opt.reference_depth = reference_depth;
    opt.trace_length = trace_length;
    opt.warmup_instructions = warmup;
    return opt;
}

std::string
ServerRequest::shapeKey() const
{
    std::ostringstream os;
    os << min_depth << ':' << max_depth << ':' << reference_depth << ':'
       << trace_length << ':' << warmup;
    return os.str();
}

bool
parseServerRequest(const std::string &line, ServerRequest *out,
                   std::string *error_code, std::string *error_message)
{
    *out = ServerRequest{};

    JsonValue doc;
    std::string parse_error;
    if (!JsonValue::parse(line, &doc, &parse_error)) {
        return fail(error_code, error_message, proto_error::kBadJson,
                    "malformed JSON: " + parse_error);
    }
    if (!doc.isObject()) {
        return fail(error_code, error_message, proto_error::kBadJson,
                    "request is not a JSON object");
    }

    // Fill the id (and trace id) first so even a rejected request
    // gets a correlated error line.
    if (const JsonValue *id = doc.find("id"); id && id->isString())
        out->id = id->string;
    if (const JsonValue *t = doc.find("trace_id"); t && t->isString())
        out->trace_id = t->string;

    bool have_id = false, have_type = false, have_workload = false;
    // First sweep-option field seen, if any: a stats request must not
    // carry one (a grid option on a probe is a client bug worth
    // naming, not silently ignoring).
    std::string sweep_field;
    for (const auto &[key, value] : doc.object) {
        if (key != "id" && key != "type" && key != "trace_id" &&
            sweep_field.empty())
            sweep_field = key;
        if (key == "id") {
            if (!value.isString() || value.string.empty() ||
                value.string.size() > 128) {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'id' must be a non-empty string of at "
                            "most 128 characters");
            }
            have_id = true;
        } else if (key == "type") {
            if (!value.isString()) {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'type' must be a string");
            }
            if (value.string == "sweep") {
                out->type = ServerRequest::Type::Sweep;
            } else if (value.string == "optimum") {
                out->type = ServerRequest::Type::Optimum;
            } else if (value.string == "stats") {
                out->type = ServerRequest::Type::Stats;
            } else {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'type' must be \"sweep\", \"optimum\" or "
                            "\"stats\", got \"" +
                                value.string + "\"");
            }
            have_type = true;
        } else if (key == "trace_id") {
            if (!value.isString() || value.string.empty() ||
                value.string.size() > 64) {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'trace_id' must be a non-empty string of "
                            "at most 64 characters");
            }
            out->trace_id = value.string;
        } else if (key == "workload") {
            if (!value.isString() || value.string.empty()) {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'workload' must be a non-empty string");
            }
            out->workload = value.string;
            have_workload = true;
        } else if (key == "min_depth" || key == "max_depth" ||
                   key == "reference_depth") {
            std::uint64_t n = 0;
            if (!readCount(value, &n) || n > 1000) {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'" + key + "' must be a small integer");
            }
            const int depth = static_cast<int>(n);
            if (key == "min_depth")
                out->min_depth = depth;
            else if (key == "max_depth")
                out->max_depth = depth;
            else
                out->reference_depth = depth;
        } else if (key == "trace_length") {
            std::uint64_t n = 0;
            if (!readCount(value, &n)) {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'trace_length' must be an integer");
            }
            out->trace_length = static_cast<std::size_t>(n);
        } else if (key == "warmup") {
            std::uint64_t n = 0;
            if (!readCount(value, &n)) {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'warmup' must be an integer");
            }
            out->warmup = static_cast<std::size_t>(n);
        } else if (key == "metric_exponent") {
            if (!value.isNumber() || !std::isfinite(value.number) ||
                value.number <= 0.0 || value.number > 100.0) {
                return fail(error_code, error_message,
                            proto_error::kBadRequest,
                            "'metric_exponent' must be in (0, 100]");
            }
            out->metric_exponent = value.number;
        } else {
            // Strict by design: a typo'd option silently falling back
            // to a default would return the wrong grid.
            return fail(error_code, error_message,
                        proto_error::kBadRequest,
                        "unknown field '" + key + "'");
        }
    }

    if (!have_id || !have_type) {
        return fail(error_code, error_message, proto_error::kBadRequest,
                    "missing required field: id and type are "
                    "mandatory");
    }

    // The in-band stats verb takes no grid options: strict here for
    // the same reason as unknown fields.
    if (out->type == ServerRequest::Type::Stats) {
        if (!sweep_field.empty()) {
            return fail(error_code, error_message,
                        proto_error::kBadRequest,
                        "field '" + sweep_field +
                            "' is not valid for a stats request");
        }
        return true;
    }

    if (!have_workload) {
        return fail(error_code, error_message, proto_error::kBadRequest,
                    "missing required field: workload is mandatory "
                    "for sweep and optimum requests");
    }

    // Depth-range limits mirror SweepOptions::validate(), which is
    // fatal — reject here so client garbage never aborts the daemon.
    if (out->min_depth < 2 || out->max_depth > 30 ||
        out->min_depth >= out->max_depth) {
        return fail(error_code, error_message, proto_error::kBadRange,
                    "depth range [" + std::to_string(out->min_depth) +
                        ", " + std::to_string(out->max_depth) +
                        "] must satisfy 2 <= min < max <= 30");
    }
    if (out->reference_depth < out->min_depth ||
        out->reference_depth > out->max_depth) {
        return fail(error_code, error_message, proto_error::kBadRange,
                    "reference_depth " +
                        std::to_string(out->reference_depth) +
                        " outside depth range");
    }
    if (out->trace_length < 1000 || out->trace_length > 5000000) {
        return fail(error_code, error_message, proto_error::kBadRange,
                    "trace_length must be in [1000, 5000000]");
    }
    if (out->warmup >= out->trace_length) {
        return fail(error_code, error_message, proto_error::kBadRange,
                    "warmup must be below trace_length");
    }

    bool known = false;
    for (const auto &w : workloadCatalog())
        known = known || w.name == out->workload;
    if (!known) {
        return fail(error_code, error_message,
                    proto_error::kUnknownWorkload,
                    "unknown workload '" + out->workload + "'");
    }
    return true;
}

namespace
{

/** ", \"trace_id\": \"...\"" when a trace id is known, else "". */
std::string
traceIdField(const std::string &trace_id)
{
    return trace_id.empty()
               ? std::string()
               : ", \"trace_id\": " + jsonQuote(trace_id);
}

std::string
phaseTimingsJson(const PhaseTimings &phases)
{
    std::ostringstream os;
    os << "{\"queue\": " << jsonNumber(phases.queue_us)
       << ", \"parse\": " << jsonNumber(phases.parse_us)
       << ", \"batch\": " << jsonNumber(phases.batch_us)
       << ", \"engine\": " << jsonNumber(phases.engine_us)
       << ", \"serialize\": " << jsonNumber(phases.serialize_us)
       << "}";
    return os.str();
}

} // namespace

std::string
errorResponseLine(const std::string &id, const std::string &code,
                  const std::string &message,
                  const std::string &trace_id)
{
    std::ostringstream os;
    os << "{\"id\": " << jsonQuote(id) << traceIdField(trace_id)
       << ", \"type\": \"error\", \"code\": " << jsonQuote(code)
       << ", \"message\": " << jsonQuote(message) << "}\n";
    return os.str();
}

std::string
cellResponseLine(const std::string &id, const std::string &trace_id,
                 const SimResult &r, double metric)
{
    std::ostringstream os;
    os << "{\"id\": " << jsonQuote(id) << traceIdField(trace_id)
       << ", \"type\": \"cell\", \"workload\": " << jsonQuote(r.workload)
       << ", \"depth\": " << r.depth
       << ", \"cycles\": " << r.cycles
       << ", \"instructions\": " << r.instructions
       << ", \"cpi\": " << jsonNumber(r.cpi())
       << ", \"bips\": " << jsonNumber(r.bips())
       << ", \"metric\": " << jsonNumber(metric)
       << ", \"fo4\": " << jsonNumber(r.cycle_time_fo4) << "}\n";
    return os.str();
}

std::string
doneResponseLine(const std::string &id, const DoneInfo &info)
{
    std::ostringstream os;
    os << "{\"id\": " << jsonQuote(id) << traceIdField(info.trace_id)
       << ", \"type\": \"done\", \"cells\": " << info.cells
       << ", \"cached\": " << info.cached
       << ", \"computed\": " << info.computed
       << ", \"holes\": 0"
       << ", \"optimum\": " << jsonNumber(info.optimum)
       << ", \"interior\": " << (info.interior ? "true" : "false")
       << ", \"elapsed_ms\": " << jsonNumber(info.elapsed_ms)
       << ", \"phase_us\": " << phaseTimingsJson(info.phases) << "}\n";
    return os.str();
}

std::string
statsResponseLine(const std::string &id, const std::string &trace_id,
                  const StatsInfo &info)
{
    std::ostringstream os;
    os << "{\"id\": " << jsonQuote(id) << traceIdField(trace_id)
       << ", \"type\": \"stats\", \"status\": " << jsonQuote(info.status)
       << ", \"uptime_s\": " << jsonNumber(info.uptime_s)
       << ", \"git\": " << jsonQuote(gitDescribe())
       << ", \"sim_version\": " << jsonQuote(kSimulatorVersionTag)
       << ", \"queue_depth\": " << info.queue_depth
       << ", \"in_flight\": " << info.in_flight
       << ", \"connections\": " << info.connections
       << ", \"completed\": " << info.completed
       << ", \"metrics\": "
       << metricsSnapshotJson(MetricsRegistry::instance().snapshot())
       << "}\n";
    return os.str();
}

} // namespace pipedepth
