#include "perfbench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "sweep/result_cache.hh"
#include "sweep/sweep_engine.hh"
#include "workloads/catalog.hh"

namespace perfbench
{

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace
{

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    ::clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

namespace
{

/** Keeps the host probe's sum from being optimized away. */
volatile std::uint64_t probe_sink = 0;

} // namespace

HostSpeed::HostSpeed()
    : buffer_(static_cast<std::size_t>(kProbeMb * 1024 * 1024) /
              sizeof(std::uint64_t))
{
    for (std::size_t i = 0; i < buffer_.size(); ++i)
        buffer_[i] = i * 0x9e3779b97f4a7c15ull;
    last_ = probe();
}

double
HostSpeed::probe() const
{
    constexpr int kReps = 5;
    std::vector<double> samples;
    for (int r = 0; r < kReps; ++r) {
        std::uint64_t sum = 0;
        const double t0 = wallSeconds();
        for (std::size_t i = 0; i < buffer_.size(); i += 2)
            sum += buffer_[i];
        samples.push_back(wallSeconds() - t0);
        probe_sink = sum;
    }
    return median(samples);
}

double
HostSpeed::rescale()
{
    const double now = probe();
    const double factor = kNominalProbeS / (0.5 * (last_ + now));
    last_ = now;
    probes_.push_back(now);
    return factor;
}

double
HostSpeed::medianProbe() const
{
    return median(probes_);
}

double
selfPeakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double clamped = std::min(std::max(p, 0.0), 100.0);
    const auto rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(v.size())));
    return v[rank == 0 ? 0 : rank - 1];
}

std::uint64_t
resultHash(const pipedepth::SimResult &r)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : pipedepth::serializeSimResult(r))
        h = (h ^ b) * 1099511628211ull;
    return h;
}

std::uint64_t
mixHash(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    return h;
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    // splitmix64-driven Fisher-Yates: the same permutation for the
    // same seed on every platform (std distributions do not promise
    // that).
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
    auto next = [&state]() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[next() % i]);
    return order;
}

void
freshDir(const std::string &path)
{
    removeTree(path);
    std::filesystem::create_directories(path);
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

void
sampleSetup(const Options &opt, int times, std::vector<double> &samples)
{
    // Created outside the timing: directory creation costs a journal
    // write, which on a shared disk varies tenfold.
    const std::string dir = opt.work_dir + "/setup";
    freshDir(dir);
    for (int i = 0; i < times; ++i) {
        const double t0 = threadCpuSeconds();
        {
            const std::vector<pipedepth::WorkloadSpec> specs =
                pipedepth::workloadCatalog();
            pipedepth::SweepEngineOptions eo;
            eo.threads = opt.cores;
            eo.cache_dir = dir;
            const pipedepth::SweepEngine engine(eo);
            if (specs.empty() || !engine.cacheEnabled())
                throw std::runtime_error("set-up failed");
        }
        samples.push_back(threadCpuSeconds() - t0);
    }
    removeTree(dir);
}

void
reportLayers(Report &report, const Options &opt, const LayerTotals &l,
             double engine_cpu_s, double untraced_wall_s,
             double traced_wall_s, const ServerLayers &s)
{
    report.set("trace.generate_s", l.generate_s, "s");
    report.set("trace.prepare_s", l.prepare_s, "s");
    report.set("uarch.annotate_s", l.annotate_s, "s");
    report.set("uarch.walk_s", l.walk_s, "s");
    report.set("uarch.walk_mips",
               l.walk_s > 0 ? static_cast<double>(l.walk_instructions) /
                                  l.walk_s / 1e6
                            : 0.0,
               "Minstr/s");
    report.set("uarch.walk_lanes",
               l.walk_calls ? static_cast<double>(l.walk_lanes) /
                                  static_cast<double>(l.walk_calls)
                            : 0.0,
               "lanes");
    report.set("sweep.key_s", l.key_s, "s");
    report.set("sweep.cache_load_s", l.load_s + l.warm_load_s, "s");
    report.set("sweep.cache_loads", static_cast<double>(l.loads), "count");
    report.set("sweep.cache_hit_ratio",
               l.loads ? static_cast<double>(l.hits) /
                             static_cast<double>(l.loads)
                       : 0.0,
               "ratio");
    report.set("sweep.cache_store_s", l.store_s, "s");
    report.set("sweep.cache_stores", static_cast<double>(l.stores),
               "count");
    report.set("sweep.warm_pass_s", l.warm_pass_s, "s");
    report.set("calib.extract_s", l.extract_s, "s");
    report.set("core.fit_s", l.fit_s, "s");
    report.set("sweep.engine_cpu_s", engine_cpu_s, "s");
    report.set("sweep.cpu_util",
               untraced_wall_s > 0
                   ? engine_cpu_s / (untraced_wall_s * opt.cores)
                   : 0.0,
               "ratio");
    report.set("sweep.residual_s", engine_cpu_s - l.entryPointSum(), "s");
    report.set("server.parse_us", s.parse_us, "us");
    report.set("server.queue_p99_ms", s.queue_p99_ms, "ms");
    report.set("server.batch_p50_ms", s.batch_p50_ms, "ms");
    report.set("server.engine_p50_ms", s.engine_p50_ms, "ms");
    report.set("server.serialize_p50_ms", s.serialize_p50_ms, "ms");
    report.set("server.unattributed_p50_ms", s.unattributed_p50_ms, "ms");
    report.set("server.requests_per_pass", s.requests_per_pass, "count");
    report.set("bench.untraced_wall_s", untraced_wall_s, "s");
    report.set("bench.traced_wall_s", traced_wall_s, "s");
}

} // namespace perfbench
