/**
 * @file
 * Span tracer: where did this run spend its time?
 *
 * A span is one timed phase of a run — a whole sweep grid, one
 * timing walk, a cache probe, an extractor fit — recorded with
 * begin/end timestamps, the recording thread, and free-form key/value
 * tags. Instrument a scope with the RAII macro:
 *
 *     TELEM_SPAN(span, "sweep.cell.fused");
 *     span.tag("workload", name);
 *     span.tag("cells", lanes);
 *
 * Tracing is off by default and the macro is near-zero cost while it
 * stays off: the constructor reads one relaxed atomic and skips the
 * clock, and tag() returns immediately (so tag arguments should be
 * values you already have, never freshly formatted strings). Tools
 * enable it for the duration of a run when the user passes
 * --trace-out.
 *
 * The recorded spans serialize to the Chrome trace_event format
 * (complete "X" events), so a run written with
 * `pipesim --workload gcc95 --sweep --trace-out run.trace.json`
 * opens directly in Perfetto (https://ui.perfetto.dev) or
 * chrome://tracing — see docs/OBSERVABILITY.md.
 *
 * Span names follow the same `subsystem.noun[.verb]` convention as
 * metrics (docs/OBSERVABILITY.md lists both catalogs).
 */

#ifndef PIPEDEPTH_TELEMETRY_TELEMETRY_HH
#define PIPEDEPTH_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pipedepth
{

/** One recorded span (complete, with both endpoints). */
struct TraceSpan
{
    std::string name;
    std::uint64_t begin_us = 0; //!< microseconds since process anchor
    std::uint64_t end_us = 0;
    std::uint32_t tid = 0; //!< small dense id, not the OS thread id

    /** Tag values pre-rendered to text; numeric ones flagged so the
     *  trace writer can emit them unquoted. */
    struct Tag
    {
        std::string key;
        std::string value;
        bool numeric = false;
    };
    std::vector<Tag> tags;
};

/** Aggregate of every span sharing a name (for manifests/summaries). */
struct SpanRollup
{
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
};

/**
 * Process-wide recorder. Disabled until setEnabled(true); recording
 * and serialization are thread-safe.
 */
class SpanTracer
{
  public:
    static SpanTracer &instance();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /** Drop every recorded span (tests, or between runs). */
    void clear();

    /** Microseconds since the process's first use of the tracer. */
    static std::uint64_t nowMicros();

    /** Dense id of the calling thread, assigned on first use. */
    static std::uint32_t currentThreadId();

    void record(TraceSpan span);

    std::size_t spanCount() const;

    /** Count/total-duration aggregate per span name. */
    std::map<std::string, SpanRollup> rollups() const;

    /** Serialize every recorded span as Chrome trace_event JSON. */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace to @p path; false (with a warning) on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    SpanTracer() = default;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
};

/**
 * RAII recorder for one span. Construct through TELEM_SPAN so the
 * enabled check happens before anything else; when the tracer is
 * disabled every member is a no-op.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : active_(SpanTracer::instance().enabled())
    {
        if (active_) {
            span_.name = name;
            span_.tid = SpanTracer::currentThreadId();
            span_.begin_us = SpanTracer::nowMicros();
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (active_) {
            span_.end_us = SpanTracer::nowMicros();
            SpanTracer::instance().record(std::move(span_));
        }
    }

    bool active() const { return active_; }

    void
    tag(const char *key, const std::string &value)
    {
        if (active_)
            span_.tags.push_back({key, value, false});
    }

    void
    tag(const char *key, const char *value)
    {
        if (active_)
            span_.tags.push_back({key, value, false});
    }

    void
    tag(const char *key, std::int64_t value)
    {
        if (active_)
            span_.tags.push_back({key, std::to_string(value), true});
    }

    void
    tag(const char *key, std::uint64_t value)
    {
        if (active_)
            span_.tags.push_back({key, std::to_string(value), true});
    }

    void
    tag(const char *key, int value)
    {
        tag(key, static_cast<std::int64_t>(value));
    }

    void
    tag(const char *key, double value)
    {
        if (active_)
            span_.tags.push_back({key, formatDouble(value), true});
    }

  private:
    static std::string formatDouble(double v);

    bool active_;
    TraceSpan span_;
};

/**
 * Declare a ScopedSpan named @p var covering the rest of the
 * enclosing scope. Add tags with var.tag(key, value) — free when
 * tracing is disabled, as long as the arguments need no formatting.
 */
#define TELEM_SPAN(var, name) ::pipedepth::ScopedSpan var(name)

} // namespace pipedepth

#endif // PIPEDEPTH_TELEMETRY_TELEMETRY_HH
