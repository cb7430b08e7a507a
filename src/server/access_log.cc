#include "server/access_log.hh"

#include <sstream>

#include "common/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"

namespace pipedepth
{

AccessLog::~AccessLog()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

bool
AccessLog::open(const std::string &path, std::string *error)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
        if (error)
            *error = "cannot open access log '" + path + "'";
        return false;
    }
    return true;
}

std::string
AccessLog::renderLine(const Entry &entry)
{
    std::ostringstream os;
    os << "{\"ts_us\": " << SpanTracer::nowMicros()
       << ", \"trace_id\": " << jsonQuote(entry.trace_id)
       << ", \"id\": " << jsonQuote(entry.id)
       << ", \"peer\": " << jsonQuote(entry.peer)
       << ", \"kind\": " << jsonQuote(entry.kind)
       << ", \"workload\": " << jsonQuote(entry.workload)
       << ", \"shape\": " << jsonQuote(entry.shape)
       << ", \"cells\": " << entry.cells
       << ", \"cached\": " << entry.cached
       << ", \"computed\": " << entry.computed
       << ", \"queue_us\": " << jsonNumber(entry.phases.queue_us)
       << ", \"parse_us\": " << jsonNumber(entry.phases.parse_us)
       << ", \"batch_us\": " << jsonNumber(entry.phases.batch_us)
       << ", \"engine_us\": " << jsonNumber(entry.phases.engine_us)
       << ", \"serialize_us\": "
       << jsonNumber(entry.phases.serialize_us)
       << ", \"total_us\": " << jsonNumber(entry.total_us)
       << ", \"outcome\": " << jsonQuote(entry.outcome) << "}\n";
    return os.str();
}

void
AccessLog::write(const Entry &entry)
{
    static Counter &lines =
        MetricsRegistry::instance().counter("server.accesslog.lines");
    const std::string line = renderLine(entry);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (file_ == nullptr)
            return;
        // One flushed write per request: a crash loses at most the
        // line being written, and a tail -f shows live traffic.
        std::fwrite(line.data(), 1, line.size(), file_);
        std::fflush(file_);
    }
    lines.add();
}

} // namespace pipedepth
