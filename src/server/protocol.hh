/**
 * @file
 * pipesimd wire protocol: newline-delimited JSON over a local socket.
 *
 * One request per line, one or more response lines per request, every
 * line a self-contained JSON object (docs/SERVER.md documents the
 * schema). This layer is socket-free — parsing, validation and
 * response rendering are pure string functions — so the protocol
 * contract is testable without a running daemon, and the daemon's I/O
 * loop stays a dumb byte pump.
 *
 * Requests are validated strictly: unknown fields, wrong types,
 * out-of-range depths and unknown workloads are rejected with a
 * structured error naming the offence, never by dropping the
 * connection. The field limits mirror SweepOptions::validate(), which
 * aborts the process on violation — the daemon must reject the same
 * garbage *before* it reaches the engine.
 */

#ifndef PIPEDEPTH_SERVER_PROTOCOL_HH
#define PIPEDEPTH_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "sweep/depth_sweep.hh"
#include "uarch/sim_result.hh"

namespace pipedepth
{

/** Stable wire error codes (the `code` field of error lines). */
namespace proto_error
{
inline constexpr const char *kBadJson = "bad_json";
inline constexpr const char *kBadRequest = "bad_request";
inline constexpr const char *kUnknownWorkload = "unknown_workload";
inline constexpr const char *kBadRange = "bad_range";
inline constexpr const char *kPayloadTooLarge = "payload_too_large";
inline constexpr const char *kOverloaded = "overloaded";
inline constexpr const char *kDeadlineExceeded = "deadline_exceeded";
inline constexpr const char *kShuttingDown = "shutting_down";
/** A cell of the request failed; a retry computes it. */
inline constexpr const char *kIncomplete = "incomplete";
} // namespace proto_error

/**
 * Per-request phase latency attribution (all microseconds). The sum
 * approximates the request's admission-to-response latency; each
 * phase is also recorded in the registry histogram
 * `server.phase.<kind>.<phase>_us` so the `stats` verb can answer
 * "where did the microseconds go" per request kind.
 */
struct PhaseTimings
{
    double queue_us = 0.0;     //!< admission -> scheduler pickup
    double parse_us = 0.0;     //!< line framing + parse + validation
    double batch_us = 0.0;     //!< pickup -> this group's engine start
    double engine_us = 0.0;    //!< the group's runGrid pass
    double serialize_us = 0.0; //!< response rendering (cell lines)
};

/** One validated client request. */
struct ServerRequest
{
    enum class Type
    {
        Sweep,   //!< stream per-cell results, then a done line
        Optimum, //!< done line only, with the fitted optimum depth
        Stats,   //!< JSON observability snapshot, answered in-band
        Health,  //!< cheap liveness probe (load balancers)
    };

    std::string id; //!< client-chosen, echoed on every response line

    /**
     * Correlation id echoed on every response line and access-log
     * entry. Client-chosen when the request carried `trace_id`;
     * otherwise the daemon generates one at admission, so every
     * admitted request can be followed across threads and into the
     * engine pass that served it.
     */
    std::string trace_id;

    Type type = Type::Sweep;
    std::string workload; //!< catalog name (validated)
    int min_depth = 2;
    int max_depth = 25;
    int reference_depth = 8;
    std::size_t trace_length = 200000;
    std::size_t warmup = 60000;
    double metric_exponent = 3.0;   //!< m of BIPS^m/W
    std::uint64_t deadline_ms = 0;  //!< 0 = no deadline

    /** Stable wire name of the request kind ("sweep", "stats", ...). */
    const char *kindName() const;

    /** The equivalent engine options (always valid post-parse). */
    SweepOptions sweepOptions() const;

    /**
     * Scheduling shape: requests with equal keys run in the same
     * engine grid (one fused multi-depth walk over the deduplicated
     * workload set). The workload is deliberately NOT part of the
     * key; the metric exponent is response-side only.
     */
    std::string shapeKey() const;
};

/**
 * Parse and validate one request line. On failure @p error_code gets
 * one of the proto_error constants and @p error_message a
 * human-readable reason; @p out->id is still filled when the id field
 * itself parsed, so the error response can be correlated.
 */
bool parseServerRequest(const std::string &line, ServerRequest *out,
                        std::string *error_code,
                        std::string *error_message);

/// @name Response lines (each includes the trailing newline)
/// @{

/**
 * Structured error: {"id":..,"type":"error","code":..,"message":..},
 * with a "trace_id" field when one is known (parse failures may not
 * have gotten far enough to have one).
 */
std::string errorResponseLine(const std::string &id,
                              const std::string &code,
                              const std::string &message,
                              const std::string &trace_id = "");

/**
 * One resolved grid cell of a sweep request. @p metric is the
 * request's BIPS^m/W value for this cell (gated power model).
 */
std::string cellResponseLine(const std::string &id,
                             const std::string &trace_id,
                             const SimResult &r, double metric);

/**
 * Terminal line of a successful sweep/optimum request. Its `holes`
 * key is always 0: a request with a hole gets an `incomplete` error
 * instead.
 */
struct DoneInfo
{
    std::string trace_id;     //!< request correlation id
    std::size_t cells = 0;    //!< grid cells of this request
    std::size_t cached = 0;   //!< served from the result cache
    std::size_t computed = 0; //!< simulated for this batch
    double optimum = 0.0;     //!< cubic-fit optimum depth
    bool interior = false;    //!< peak interior to the sampled range
    double elapsed_ms = 0.0;  //!< admission-to-response latency
    PhaseTimings phases;      //!< where those milliseconds went
};

std::string doneResponseLine(const std::string &id, const DoneInfo &info);

/**
 * Daemon state reported by the `stats` verb; the server fills the
 * live fields, the renderer appends the full metrics-registry
 * snapshot (metricsSnapshotJson — every counter/gauge, every
 * histogram with p50/p90/p99 estimates).
 */
struct StatsInfo
{
    std::string status = "serving"; //!< "serving" or "draining"
    double uptime_s = 0.0;          //!< since the server started
    std::size_t queue_depth = 0;    //!< admitted, not yet picked up
    std::size_t in_flight = 0;      //!< admitted, not yet answered
    std::size_t connections = 0;    //!< currently open
    std::uint64_t completed = 0;    //!< done lines over the lifetime
};

/** {"id":..,"type":"stats",..live fields..,"metrics":{..}}. */
std::string statsResponseLine(const std::string &id,
                              const std::string &trace_id,
                              const StatsInfo &info);

/**
 * {"id":..,"type":"health","status":..,"uptime_s":..}. Cheap enough
 * for load-balancer probes: no registry snapshot, no allocation
 * beyond the line itself. Status mirrors StatsInfo::status — a
 * draining daemon still answers (so probes see "draining" and take
 * it out of rotation) but admits nothing else.
 */
std::string healthResponseLine(const std::string &id,
                               const std::string &trace_id,
                               const std::string &status,
                               double uptime_s);

/// @}

} // namespace pipedepth

#endif // PIPEDEPTH_SERVER_PROTOCOL_HH
