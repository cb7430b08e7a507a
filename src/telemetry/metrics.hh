/**
 * @file
 * Process-wide metrics registry: counters, gauges and histograms.
 *
 * The one tally of what a process ran: each event is counted once,
 * under one name. Every instrumented subsystem registers its metrics
 * here under a `subsystem.noun.verb` name (docs/OBSERVABILITY.md
 * lists the catalog); the registry is the engine summary
 * (SweepEngine::printSummary), the daemon's `stats` line and the
 * `metrics` object of every run manifest (telemetry/manifest.hh).
 * Tests read an engine call's counts as the change across the call.
 *
 * Cost model: a registered Counter/Gauge/Histogram reference is
 * looked up once (mutex-guarded find-or-create, typically bound to a
 * function-local static) and then updated with single relaxed
 * atomics — cheap enough for always-on instrumentation of per-cell
 * and per-run events. Do not put an update on a per-instruction
 * path; the simulator records per *run*.
 *
 * Histograms use fixed log2 buckets over uint64 samples (bucket i
 * holds values with bit-width i, i.e. [2^(i-1), 2^i)), so bucket
 * boundaries never depend on the data and snapshots from different
 * runs merge trivially. Convention: time samples are recorded in
 * microseconds (recordSeconds does the conversion), and the metric
 * name carries a `_us` suffix.
 */

#ifndef PIPEDEPTH_TELEMETRY_METRICS_HH
#define PIPEDEPTH_TELEMETRY_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pipedepth
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/** Log2-bucketed distribution of uint64 samples. */
class Histogram
{
  public:
    /** Bucket 0 holds the sample 0; bucket i>0 holds [2^(i-1), 2^i). */
    static constexpr std::size_t kNumBuckets = 65;

    static std::size_t
    bucketOf(std::uint64_t v)
    {
        std::size_t width = 0;
        while (v) {
            ++width;
            v >>= 1;
        }
        return width;
    }

    /** Inclusive lower bound of bucket @p i. */
    static std::uint64_t
    bucketLowerBound(std::size_t i)
    {
        return i == 0 ? 0 : (i == 1 ? 1 : (1ull << (i - 1)));
    }

    void
    record(std::uint64_t v)
    {
        buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Record a duration in the microsecond convention. */
    void
    recordSeconds(double seconds)
    {
        record(seconds <= 0.0
                   ? 0
                   : static_cast<std::uint64_t>(seconds * 1e6));
    }

    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

    /**
     * Estimate of the @p q quantile (q in [0, 1]) from the log2
     * buckets: the sample holding the nearest rank is located in its
     * bucket and placed by the midpoint rule (the k-th of n samples
     * of a bucket sits at lower + width * (k - 0.5) / n). The bucket
     * resolution bounds the error: an estimate is always inside the
     * target sample's bucket [2^(i-1), 2^i), so the worst-case
     * relative error is 50% (estimate 1.5L against a true value of L;
     * tests/telemetry/test_metrics.cc pins the bound). 0 on an empty
     * histogram.
     */
    double quantile(double q) const;

    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> count_{0};
};

/** One metric's state at snapshot time. */
struct MetricSnapshot
{
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
    };

    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t count = 0; //!< counter value / histogram sample count
    std::int64_t gauge = 0;  //!< gauge value
    std::uint64_t sum = 0;   //!< histogram sample sum

    /** Non-empty buckets only: (inclusive lower bound, count). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/**
 * Quantile estimate over a (lower bound, count) bucket list as found
 * in MetricSnapshot::buckets — the same nearest-rank-plus-midpoint
 * rule as Histogram::quantile, usable on snapshots read back from a
 * manifest or a stats line. @p q in [0, 1]; 0 when @p count is 0.
 */
double histogramQuantile(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> &buckets,
    std::uint64_t count, double q);

/**
 * Compact one-line JSON rendering of a registry snapshot, keyed by
 * metric name: counters/gauges as {"kind", "value"}, histograms as
 * {"kind", "count", "sum", "mean", "p50", "p90", "p99"} with the
 * quantiles estimated by histogramQuantile. This is the `metrics`
 * object of the daemon's `stats` response (server/protocol.hh); the
 * run manifest keeps the full bucket lists instead.
 */
std::string
metricsSnapshotJson(const std::vector<MetricSnapshot> &metrics);

/**
 * Name -> metric instrument map. Instruments are created on first
 * use, never destroyed, and safe to update from any thread; hold the
 * returned reference rather than re-looking it up on a hot path.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Every registered metric, sorted by name. */
    std::vector<MetricSnapshot> snapshot() const;

    /**
     * Zero every instrument (references stay valid). For tests and
     * for tools that want per-phase deltas.
     */
    void resetAll();

  private:
    MetricsRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace pipedepth

#endif // PIPEDEPTH_TELEMETRY_METRICS_HH
