#include "sweep/sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "sweep/cache_key.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "uarch/multi_depth_walk.hh"

namespace pipedepth
{

namespace
{

/** Wait between claims of a group another process holds. */
constexpr std::chrono::milliseconds kShardPoll{25};

/**
 * The record of a cell quarantined by the exception being handled
 * (call from a catch block): its what(), which names the failpoint
 * when one was injected.
 */
FailureRecord
quarantineRecord(const std::string &workload, int depth)
{
    FailureRecord f{workload, depth, "quarantined: "};
    try {
        throw;
    } catch (const std::exception &e) {
        f.cause += e.what();
    } catch (...) {
        f.cause += "unknown failure";
    }
    return f;
}

/** The explicit hole a quarantined or skipped cell leaves behind:
 *  identity fields set, cycles == 0. runGrid assembles no
 *  SweepResult around one, and assembleSweep refuses it. */
SimResult
holeResult(const std::string &workload, const PipelineConfig &config)
{
    SimResult hole;
    hole.workload = workload;
    hole.depth = config.depth;
    hole.config = config;
    return hole;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Runs a callable when the scope it guards ends, however it ends. */
template <typename Fn>
class ScopeExit
{
  public:
    explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
    ~ScopeExit() { fn_(); }
    ScopeExit(const ScopeExit &) = delete;
    ScopeExit &operator=(const ScopeExit &) = delete;

  private:
    Fn fn_;
};

/** Records one `sweep.call.wall_us` sample: an engine call's wall
 *  time. */
class CallTimer
{
  public:
    CallTimer() : start_(std::chrono::steady_clock::now()) {}

    ~CallTimer()
    {
        static Histogram &wall =
            MetricsRegistry::instance().histogram("sweep.call.wall_us");
        wall.recordSeconds(secondsSince(start_));
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace

/**
 * What runGrid and runConfigs hand the cell pipeline: the workloads
 * and configs, and the things that differ between a catalog grid and
 * an explicit trace. Every workload runs every config: cell i is
 * workload i / |configs| under config i % |configs|, so each
 * workload's cells are contiguous.
 */
struct SweepEngine::CellPlan
{
    std::vector<std::string> names;      //!< one per workload
    std::vector<PipelineConfig> configs; //!< run for every workload

    /** Per workload when caching, the hasher state its cells' keys
     *  share (specCellHasher or traceCellHasher): a cell's key is
     *  cellKey(traces[w], config), and traces[w].key() names the
     *  workload's log. */
    std::vector<StableHasher> traces;
    /** Instructions every cell's run times: the trace length. */
    std::uint64_t instructions = 0;
    /** Replay buffer of a workload. Called at most once per workload,
     *  and only on a cache miss. */
    std::function<ReplayBuffer(std::size_t workload)> replay;
    /** Hash the workload's part of a shard group key; the pipeline
     *  appends the config of every cell in the group. */
    std::function<void(StableHasher &, std::size_t workload)> group_prefix;
    /** Traces @ref replay generated (`sweep.trace.generate`). */
    std::atomic<std::uint64_t> traces_generated{0};

    std::size_t size() const { return names.size() * configs.size(); }
    std::size_t workloadOf(std::size_t cell) const
    {
        return cell / configs.size();
    }
    const PipelineConfig &configOf(std::size_t cell) const
    {
        return configs[cell % configs.size()];
    }
};

/**
 * The one record of cell outcomes. Every resolved cell makes exactly
 * one record() call. The manifest's `cell` event is written as the
 * call happens; fold() derives the registry's outcome counters, the
 * manifest's cells list and lastFailures() from the kept entries, in
 * cell order.
 */
class SweepEngine::CellRecorder
{
  public:
    enum class Outcome
    {
        Skipped,     //!< unstarted at an interrupt drain
        Cached,      //!< served from the result cache
        Computed,    //!< walked this run
        Quarantined, //!< its walk threw here
    };

    struct Entry
    {
        Outcome outcome = Outcome::Skipped;
        std::uint64_t instructions = 0;
        std::optional<FailureRecord> failure = {}; //!< holes only
    };

    CellRecorder(SweepEngine &engine, const CellPlan &plan)
        : engine_(engine), plan_(plan), entries_(plan.size())
    {
    }

    void
    record(std::size_t cell, Entry entry)
    {
        // Each cell is recorded once, by the one worker resolving it.
        // A skipped cell is neither reported nor done: a re-run
        // computes it.
        const Entry &e = entries_[cell] = std::move(entry);
        if (e.outcome != Outcome::Skipped && engine_.manifest_)
            engine_.manifest_->cellEvent(manifestCell(cell));
    }

    void
    fold()
    {
        std::uint64_t computed = 0, cached = 0, quarantined = 0,
                      skipped = 0, instructions = 0;
        engine_.last_failures_.clear();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            switch (e.outcome) {
              case Outcome::Skipped:
                ++skipped;
                break;
              case Outcome::Cached:
                ++cached;
                break;
              case Outcome::Quarantined:
                ++quarantined;
                break;
              case Outcome::Computed:
                ++computed;
                instructions += e.instructions;
                break;
            }
            if (e.failure)
                engine_.last_failures_.push_back(*e.failure);
            if (engine_.manifest_ && e.outcome != Outcome::Skipped)
                engine_.manifest_->recordCell(manifestCell(i));
        }
        auto &registry = MetricsRegistry::instance();
        registry.counter("sweep.cell.schedule").add(entries_.size());
        registry.counter("sweep.cell.compute").add(computed);
        registry.counter("sweep.cell.cached").add(cached);
        registry.counter("sweep.trace.generate")
            .add(plan_.traces_generated.load());
        registry.counter("sweep.instructions.simulate").add(instructions);
        registry.counter("sweep.cell.quarantine").add(quarantined);
        registry.counter("sweep.cell.skip").add(skipped);
    }

  private:
    /** Recorded cell @p cell as the manifest reports it; the one
     *  source of its `cell` event and its cells list entry. Not for
     *  a skipped cell, which the manifest never reports. */
    ManifestCell
    manifestCell(std::size_t cell) const
    {
        const Entry &e = entries_[cell];
        ManifestCell::Outcome outcome = ManifestCell::Outcome::Computed;
        if (e.outcome == Outcome::Cached)
            outcome = ManifestCell::Outcome::Cached;
        else if (e.outcome == Outcome::Quarantined)
            outcome = ManifestCell::Outcome::Quarantined;
        return {plan_.names[plan_.workloadOf(cell)],
                plan_.configOf(cell).depth, outcome, e.instructions};
    }

    SweepEngine &engine_;
    const CellPlan &plan_;
    std::vector<Entry> entries_; //!< one per plan cell
};

SweepEngine::SweepEngine(const SweepEngineOptions &options)
    : options_(options),
      cache_(options.use_cache
                 ? (options.cache_dir.empty()
                        ? ResultCache::resolveDefaultDir()
                        : options.cache_dir)
                 : std::string())
{
    if (options_.shards > 1) {
        // The cache is the shared result substrate: without it the
        // other shards' work can never reach this one, so sharding
        // would only split the grid without merging it back.
        if (!cache_.enabled()) {
            PP_WARN("sweep engine: shards=", options_.shards,
                    " requested without a usable result cache; "
                    "running unsharded");
        } else {
            ShardOptions shard_options;
            shard_options.shards = options_.shards;
            shard_options.shard_id = options_.shard_id;
            shard_options.dir = options_.shard_dir;
            shard_coordinator_ =
                std::make_unique<ShardCoordinator>(shard_options);
        }
    }
}

std::vector<SimResult>
SweepEngine::resolveCells(const CellPlan &plan)
{
    using Outcome = CellRecorder::Outcome;

    CellRecorder recorder(*this, plan);

    // One lazily prepared replay buffer + annotation set per workload:
    // its cells share them, and a workload whose cells all hit the
    // cache never builds them (a catalog workload never even generates
    // its trace). Every depth replays the flat buffer against the
    // precomputed microarchitectural outcomes (depth-invariant; see
    // uarch/replay_annotations.hh), annotated under the config of the
    // first cell that needs them; simulateMultiDepth annotates again
    // for a walk class they do not match. A replay lives from its
    // workload's first walked miss to the end of the workload's last
    // group. Groups are claimed in index order and a workload's groups
    // are contiguous, so an unsharded call holds at most one replay
    // per worker thread, however many workloads its plan has.
    struct Prepared
    {
        ReplayBuffer buffer;
        ReplayAnnotations annotations;
    };
    struct Replay
    {
        std::once_flag once;
        std::unique_ptr<Prepared> prepared; //!< null before and after use
        std::atomic<std::size_t> groups_left{0}; //!< not yet resolved
    };
    std::vector<Replay> replays(plan.names.size());
    // Replays held now, and the most held at once in this call (the
    // `sweep.replay.resident` gauge).
    std::mutex resident_mutex;
    std::size_t resident = 0, most_resident = 0;
    auto replayFor = [&](std::size_t w,
                         const PipelineConfig &config) -> const Prepared & {
        Replay &r = replays[w];
        // Only a running group of the workload asks: once its last
        // group has ended, the replay is gone.
        PP_ASSERT(r.groups_left.load() > 0, "replay of ", plan.names[w],
                  " asked for after its last group");
        std::call_once(r.once, [&]() {
            TELEM_SPAN(prepare_span, "sweep.trace.prepare");
            prepare_span.tag("workload", plan.names[w]);
            auto p = std::make_unique<Prepared>();
            p->buffer = plan.replay(w);
            p->annotations = annotateReplay(p->buffer, config);
            r.prepared = std::move(p);
            const std::lock_guard<std::mutex> lock(resident_mutex);
            most_resident = std::max(most_resident, ++resident);
        });
        return *r.prepared;
    };
    // Ends one group of workload @p w; the last one frees the replay.
    auto groupResolved = [&](std::size_t w) {
        Replay &r = replays[w];
        if (r.groups_left.fetch_sub(1) != 1 || !r.prepared)
            return;
        r.prepared.reset();
        const std::lock_guard<std::mutex> lock(resident_mutex);
        --resident;
    };

    // Resolve cell @p i without a walk when it can be: an interrupt
    // hole, or a frame of @p log (its workload's log, as one read left
    // it) under @p key that is this cell's run.
    auto probe = [&](std::size_t i, const std::vector<CachedCell> &log,
                     const CacheKey &key, SimResult &out) -> bool {
        const PipelineConfig &config = plan.configOf(i);
        const std::string &name = plan.names[plan.workloadOf(i)];
        const int depth = config.depth;

        // Graceful drain (SIGINT/SIGTERM): cells not yet started
        // resolve to holes immediately; in-flight cells finish, so
        // everything already paid for lands in the cache.
        if (interruptRequested()) {
            recorder.record(
                i, {.outcome = Outcome::Skipped,
                    .failure = FailureRecord{name, depth,
                                             "skipped: interrupt drain"}});
            out = holeResult(name, config);
            return true;
        }

        // A frame of another depth or trace length is not this cell's
        // run (every timed instruction is in the trace): walk the
        // cell, and its frame supersedes this one.
        const auto hit = std::find_if(
            log.begin(), log.end(),
            [&](const CachedCell &c) { return c.key == key; });
        if (hit == log.end() || hit->result.depth != depth ||
            hit->result.instructions != plan.instructions)
            return false;
        out = hit->result;
        out.workload = name;
        out.config = config;
        recorder.record(i, {.outcome = Outcome::Cached,
                            .instructions = out.instructions});
        return true;
    };

    // The one walk route: cells @p todo of the group starting at
    // @p begin, all cache misses. Fires sweep.cell.simulate for each,
    // in cell order, then walks the survivors together in one
    // simulateMultiDepth call (its wall time is the `sweep.cell.fused`
    // span). A cell whose failpoint fired, and every survivor when
    // trace preparation or the walk throws, is quarantined after this
    // one attempt: a hole that is never cached, so the next run of the
    // same sweep computes it. Resolves every cell.
    auto walkMissing = [&](std::size_t begin,
                           const std::vector<std::size_t> &todo,
                           const std::vector<CacheKey> &keys,
                           std::vector<SimResult> &out) {
        const std::size_t w = plan.workloadOf(begin);
        const std::string &name = plan.names[w];
        // Called from a catch block.
        auto quarantine = [&](std::size_t i) {
            const PipelineConfig &config = plan.configOf(begin + i);
            recorder.record(
                begin + i,
                {.outcome = Outcome::Quarantined,
                 .failure = quarantineRecord(name, config.depth)});
            out[i] = holeResult(name, config);
        };
        std::vector<std::size_t> survivors;
        for (std::size_t i : todo) {
            try {
                PP_FAILPOINT("sweep.cell.simulate");
                survivors.push_back(i);
            } catch (...) {
                quarantine(i);
            }
        }
        if (survivors.empty())
            return;

        std::vector<PipelineConfig> lanes;
        for (std::size_t i : survivors)
            lanes.push_back(plan.configOf(begin + i));
        std::vector<SimResult> walked;
        try {
            const Prepared &r = replayFor(w, lanes.front());
            TELEM_SPAN(span, "sweep.cell.fused");
            span.tag("workload", name);
            span.tag("cells", static_cast<std::uint64_t>(lanes.size()));
            walked = simulateMultiDepth(r.buffer, r.annotations, lanes);
        } catch (...) {
            for (std::size_t i : survivors)
                quarantine(i);
            return;
        }
        // One append of every walked cell's frame, then one fsync.
        std::vector<CachedCell> frames;
        frames.reserve(survivors.size());
        for (std::size_t m = 0; m < survivors.size(); ++m)
            frames.push_back({keys[survivors[m]], std::move(walked[m])});
        if (cache_.enabled())
            cache_.append(plan.traces[w].key(), frames);
        for (std::size_t m = 0; m < survivors.size(); ++m) {
            const std::size_t i = survivors[m];
            recorder.record(begin + i,
                            {.outcome = Outcome::Computed,
                             .instructions = frames[m].result.instructions});
            out[i] = std::move(frames[m].result);
        }
    };

    // Cell groups: contiguous runs of one workload's cells, scheduled
    // as units so that each group's cache misses share one walk
    // instead of one pass over the replay buffer per cell. Grouping is
    // purely a scheduling choice: a cell's result is byte-identical at
    // any lane count, so neither thread count nor group shape can leak
    // into measurements, and the cache key is unchanged.
    struct Group
    {
        std::size_t begin; //!< first cell
        std::size_t end;   //!< one past the last
        bool foreign = false; //!< outside this shard's partition
    };
    // One group per workload when there are enough workloads to fill
    // the pool; otherwise split each workload's cells so work stealing
    // still balances the tail — but never below 4 cells, since fusion
    // amortizes the streaming cost across the group. Under sharding
    // the split is derived from the shard count, NOT the thread pool:
    // every worker process must form the identical groups or the
    // lease keys would not line up.
    const std::size_t target_groups =
        3 * (shard_coordinator_
                 ? static_cast<std::size_t>(shard_coordinator_->shards()) * 2
                 : static_cast<std::size_t>(parallelWorkerCount(
                       options_.threads, plan.size(), 1)));
    const std::size_t n_workloads = plan.names.size();
    const std::size_t n_configs = plan.configs.size();
    const std::size_t splits =
        n_workloads > 0 && n_workloads < target_groups
            ? (target_groups + n_workloads - 1) / n_workloads
            : 1;
    const std::size_t span =
        std::max<std::size_t>(4, (n_configs + splits - 1) / splits);
    std::vector<Group> groups;
    for (std::size_t w = 0; w < n_workloads; ++w) {
        for (std::size_t b = 0; b < n_configs; b += span) {
            groups.push_back(Group{w * n_configs + b,
                                   w * n_configs +
                                       std::min(n_configs, b + span)});
        }
    }
    if (shard_coordinator_) {
        // Round-robin partition by canonical group index. Own groups
        // run first; foreign ones follow as work stealing — visited
        // only once a worker's own partition has drained, and
        // resolved from the cache when their live owner finishes
        // first. Reordering is safe: results map back through
        // Group::begin, not group order.
        for (std::size_t g = 0; g < groups.size(); ++g)
            groups[g].foreign = !shard_coordinator_->mine(g);
        std::stable_partition(groups.begin(), groups.end(),
                              [](const Group &g) { return !g.foreign; });
    }
    for (const Group &group : groups)
        ++replays[plan.workloadOf(group.begin)].groups_left;

    auto runGroup = [&](const Group &group) -> std::vector<SimResult> {
        // However the group resolves (walked, all hits, shard wait,
        // drain), its end may be its workload's last.
        const std::size_t w = plan.workloadOf(group.begin);
        const ScopeExit group_end([&] { groupResolved(w); });
        const std::size_t count = group.end - group.begin;
        std::vector<SimResult> out(count);
        std::vector<CacheKey> keys(count);
        if (cache_.enabled()) {
            for (std::size_t i = 0; i < count; ++i)
                keys[i] = cellKey(plan.traces[w],
                                  plan.configOf(group.begin + i));
        }
        std::vector<char> resolved(count, 0);

        // Read the workload's log once, probe every still-unresolved
        // cell against it and return the indices left over. The
        // resolved flags make re-probes — the shard wait loop probes
        // after every poll round — record each cell exactly once.
        auto probeMissing = [&]() {
            std::vector<CachedCell> log;
            if (cache_.enabled())
                log = cache_.read(plan.traces[w].key());
            std::vector<std::size_t> missing;
            for (std::size_t i = 0; i < count; ++i) {
                if (resolved[i])
                    continue;
                if (probe(group.begin + i, log, keys[i], out[i]))
                    resolved[i] = 1;
                else
                    missing.push_back(i);
            }
            return missing;
        };

        std::vector<std::size_t> missing = probeMissing();
        if (missing.empty())
            return out;
        if (!shard_coordinator_) {
            walkMissing(group.begin, missing, keys, out);
            return out;
        }

        // Sharded: lock the group before walking it. The key hashes
        // the group's *content* (the plan's workload prefix, then
        // every cell config), so it is identical in every worker
        // process and every run — group order and thread count cannot
        // leak in.
        StableHasher group_hasher;
        plan.group_prefix(group_hasher, w);
        for (std::size_t i = group.begin; i < group.end; ++i)
            hashPipelineConfig(group_hasher, plan.configOf(i));
        const std::string group_key = group_hasher.key().hex();

        while (true) {
            switch (shard_coordinator_->tryClaim(group_key,
                                                 group.foreign)) {
            case ShardCoordinator::Claim::Acquired:
                // A holder that finished or died before us cached all
                // or a prefix of the group: re-probe so only the
                // remainder walks. Its holes are misses and walk here
                // again — a hole stays with the process that met it.
                missing = probeMissing();
                if (!missing.empty())
                    walkMissing(group.begin, missing, keys, out);
                shard_coordinator_->release(group_key);
                return out;
            case ShardCoordinator::Claim::Uncoordinated:
                walkMissing(group.begin, missing, keys, out);
                return out;
            case ShardCoordinator::Claim::Busy:
                // A live process holds the group and streams results
                // into the shared cache as it goes; pick up whatever
                // landed, then poll again. If the holder dies, the
                // kernel drops its lock and the next claim acquires.
                std::this_thread::sleep_for(kShardPoll);
                missing = probeMissing();
                if (missing.empty())
                    return out;
                break;
            }
        }
    };

    std::vector<std::vector<SimResult>> grouped =
        parallelMap(groups, runGroup, options_.threads);
    std::vector<SimResult> results(plan.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t i = 0; i < grouped[g].size(); ++i)
            results[groups[g].begin + i] = std::move(grouped[g][i]);
    }
    static Gauge &resident_gauge =
        MetricsRegistry::instance().gauge("sweep.replay.resident");
    resident_gauge.set(static_cast<std::int64_t>(most_resident));
    recorder.fold();
    return results;
}

std::vector<SimResult>
SweepEngine::resolveSpecs(const std::vector<WorkloadSpec> &specs,
                          std::size_t trace_length,
                          std::vector<PipelineConfig> configs)
{
    CellPlan plan;
    for (const WorkloadSpec &spec : specs) {
        plan.names.push_back(spec.name);
        if (cache_.enabled())
            plan.traces.push_back(specCellHasher(spec, trace_length));
    }
    plan.configs = std::move(configs);
    plan.instructions = trace_length;
    // The intermediate Trace is dropped as soon as the buffer is built.
    plan.replay = [&](std::size_t s) {
        plan.traces_generated.fetch_add(1);
        return prepareReplay(specs[s].makeTrace(trace_length));
    };
    plan.group_prefix = [&](StableHasher &h, std::size_t s) {
        h.str("grid");
        hashWorkloadSpec(h, specs[s]);
        h.u64(trace_length);
    };
    return resolveCells(plan);
}

std::vector<SweepResult>
SweepEngine::runGrid(const std::vector<WorkloadSpec> &specs,
                     const SweepOptions &options,
                     const GridTelemetry *telemetry)
{
    options.validate();

    const CallTimer timer;
    const std::size_t n_depths = static_cast<std::size_t>(
        options.max_depth - options.min_depth + 1);

    TELEM_SPAN(grid_span, "sweep.grid");
    grid_span.tag("workloads", static_cast<std::uint64_t>(specs.size()));
    grid_span.tag("depths", static_cast<std::uint64_t>(n_depths));
    if (telemetry != nullptr) {
        // Request correlation: the daemon batches concurrent requests
        // into one pass; these tags are how one slow trace id is
        // followed from its access-log line into the engine.
        if (!telemetry->batch_id.empty())
            grid_span.tag("batch", telemetry->batch_id);
        if (!telemetry->trace_ids.empty())
            grid_span.tag("trace_ids", telemetry->trace_ids);
        // The event stream is ordered, so a grid event here scopes
        // every following cell event to this batch's trace ids.
        if (manifest_ != nullptr) {
            manifest_->event("grid",
                             {{"batch", telemetry->batch_id},
                              {"trace_ids", telemetry->trace_ids}});
        }
    }

    std::vector<PipelineConfig> configs;
    for (int p = options.min_depth; p <= options.max_depth; ++p)
        configs.push_back(options.configAtDepth(p));
    std::vector<SimResult> runs =
        resolveSpecs(specs, options.trace_length, std::move(configs));

    TELEM_SPAN(assemble_span, "sweep.assemble");
    std::vector<SweepResult> out;
    out.reserve(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const auto begin =
            runs.begin() + static_cast<std::ptrdiff_t>(s * n_depths);
        const auto end = begin + static_cast<std::ptrdiff_t>(n_depths);
        if (std::any_of(begin, end,
                        [](const SimResult &r) { return r.cycles == 0; }))
            continue; // a hole: lastFailures() names it
        out.push_back(assembleSweep(
            specs[s], options,
            std::vector<SimResult>(std::make_move_iterator(begin),
                                   std::make_move_iterator(end))));
    }
    return out;
}

std::optional<SweepResult>
SweepEngine::runSweep(const WorkloadSpec &spec, const SweepOptions &options)
{
    std::vector<SweepResult> grid =
        runGrid(std::vector<WorkloadSpec>{spec}, options);
    if (grid.empty())
        return std::nullopt;
    return std::move(grid.front());
}

std::vector<SimResult>
SweepEngine::runConfigs(const WorkloadSpec &spec, std::size_t trace_length,
                        const std::vector<PipelineConfig> &configs)
{
    // makeTrace(0) means the spec's default length, and annotation
    // clamps the warmup to the trace, so either would key one result
    // at a second address (runGrid refuses both in
    // SweepOptions::validate).
    if (trace_length == 0)
        PP_FATAL("runConfigs: trace_length must be positive");
    for (const PipelineConfig &config : configs) {
        if (config.warmup_instructions >= trace_length) {
            PP_FATAL("runConfigs: warmup_instructions (",
                     config.warmup_instructions,
                     ") must be below trace_length (", trace_length, ")");
        }
    }

    const CallTimer timer;

    TELEM_SPAN(grid_span, "sweep.configs");
    grid_span.tag("workload", spec.name);
    grid_span.tag("configs", static_cast<std::uint64_t>(configs.size()));
    return resolveSpecs({spec}, trace_length, configs);
}

std::vector<SimResult>
SweepEngine::runConfigs(const Trace &trace,
                        const std::vector<PipelineConfig> &configs)
{
    // Annotation clamps the warmup to the trace, so every warmup at or
    // past its length would key one result at an address of its own.
    for (const PipelineConfig &config : configs) {
        if (config.warmup_instructions >= trace.records.size()) {
            PP_FATAL("runConfigs: warmup_instructions (",
                     config.warmup_instructions,
                     ") must be below the trace's record count (",
                     trace.records.size(), ")");
        }
    }

    const CallTimer timer;

    TELEM_SPAN(grid_span, "sweep.configs");
    grid_span.tag("workload", trace.name);
    grid_span.tag("configs", static_cast<std::uint64_t>(configs.size()));

    CellPlan plan;
    plan.names = {trace.name};
    plan.configs = configs;
    plan.instructions = trace.records.size();
    // Hash the records once per call, not once per config: every
    // cell's key is this state with its config appended.
    if (cache_.enabled()) {
        TELEM_SPAN(key_span, "sweep.key");
        key_span.tag("workload", trace.name);
        key_span.tag("records",
                     static_cast<std::uint64_t>(trace.records.size()));
        plan.traces = {traceCellHasher(trace)};
    }
    plan.replay = [&](std::size_t) { return prepareReplay(trace); };
    // The trace name stands in for the trace in the group key: the
    // cells' cache keys already hash every record.
    plan.group_prefix = [&](StableHasher &h, std::size_t) {
        h.str("configs");
        h.str(trace.name);
    };
    return resolveCells(plan);
}

void
SweepEngine::printSummary(std::ostream &os) const
{
    os << "sweep engine ["
       << (cacheEnabled() ? "cache " + cache_.dir() : "cache off")
       << "]\n";

    // Process-wide registry snapshot (docs/OBSERVABILITY.md): covers
    // this engine plus anything else the process ran.
    os << "metrics:";
    bool any = false;
    for (const MetricSnapshot &m : MetricsRegistry::instance().snapshot()) {
        switch (m.kind) {
          case MetricSnapshot::Kind::Counter:
            if (m.count) {
                os << "\n  " << m.name << " " << m.count;
                any = true;
            }
            break;
          case MetricSnapshot::Kind::Gauge:
            os << "\n  " << m.name << " " << m.gauge << " (gauge)";
            any = true;
            break;
          case MetricSnapshot::Kind::Histogram:
            if (m.count) {
                os << "\n  " << m.name << " count=" << m.count
                   << " mean=" << (m.sum / m.count) << "us";
                any = true;
            }
            break;
        }
    }
    os << (any ? "\n" : " (none)\n");
    for (const FailureRecord &f : last_failures_) {
        os << "hole: " << f.workload << " depth " << f.depth << " "
           << f.cause << "\n";
    }
}

} // namespace pipedepth
