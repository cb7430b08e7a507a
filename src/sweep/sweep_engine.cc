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
#include "common/table.hh"
#include "sweep/cache_key.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "uarch/multi_depth_walk.hh"

namespace pipedepth
{

double
SweepCounters::hitRate() const
{
    const std::uint64_t done = cache_hits + cells_computed;
    return done ? static_cast<double>(cache_hits) /
                      static_cast<double>(done)
                : 0.0;
}

double
SweepCounters::simMips() const
{
    return wall_seconds > 0.0
               ? static_cast<double>(instructions_simulated) /
                     wall_seconds / 1e6
               : 0.0;
}

namespace
{

/** Wait between claims of a group another process holds. */
constexpr std::chrono::milliseconds kShardPoll{25};

/**
 * Describe the exception being handled (call from a catch block):
 * its what(), and the failpoint name when one was injected.
 */
void
describeFailure(std::string &cause, std::string &failpoint)
{
    try {
        throw;
    } catch (const FailpointError &e) {
        cause = e.what();
        failpoint = e.failpoint();
    } catch (const std::exception &e) {
        cause = e.what();
        failpoint.clear();
    } catch (...) {
        cause = "unknown failure";
        failpoint.clear();
    }
}

/** The explicit hole a quarantined or skipped cell leaves behind:
 *  identity fields set, cycles == 0 (nothing downstream mistakes it
 *  for data — SweepResult::complete() is false and pipesim skips the
 *  row). */
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

class WallTimer
{
  public:
    explicit WallTimer(double *accumulator)
        : accumulator_(accumulator),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~WallTimer() { *accumulator_ += secondsSince(start_); }

  private:
    double *accumulator_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace

/**
 * What runGrid and runConfigs hand the cell pipeline: the workloads
 * and configs, and the three things that differ between a catalog
 * grid and an explicit trace. Every workload runs every config: cell
 * i is workload i / |configs| under config i % |configs|, so each
 * workload's cells are contiguous.
 */
struct SweepEngine::CellPlan
{
    std::vector<std::string> names;      //!< one per workload
    std::vector<PipelineConfig> configs; //!< run for every workload

    /** Cache key of a cell: simCellKey or traceCellKey. */
    std::function<CacheKey(std::size_t workload, const PipelineConfig &)>
        key;
    /** Replay buffer of a workload. Called at most once per workload,
     *  and only on a cache miss. */
    std::function<ReplayBuffer(std::size_t workload)> replay;
    /** Hash the workload's part of a shard group key; the pipeline
     *  appends the config of every cell in the group. */
    std::function<void(StableHasher &, std::size_t workload)> group_prefix;
    /** Traces @ref replay generated (SweepCounters::traces_generated). */
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
 * one record() call. The `sweep.cell` span, the manifest's `cell`
 * event and sweep.cell.fail are written as the call happens; fold()
 * derives the SweepCounters, their registry mirror, the manifest's
 * cells list and both failure lists from the kept entries, in cell
 * order.
 */
class SweepEngine::CellRecorder
{
  public:
    enum class Outcome
    {
        Skipped,     //!< unstarted at an interrupt drain
        Cached,      //!< served from the result cache
        Computed,    //!< walked this run
        Quarantined, //!< exhausted its retries here
    };

    struct Entry
    {
        Outcome outcome = Outcome::Skipped;
        unsigned attempts = 1;
        double seconds = 0.0;
        std::uint64_t instructions = 0;
        bool stored = false;  //!< written to the result cache
        unsigned corrupt = 0; //!< corrupt entries met while probing
        std::optional<FailureRecord> failure = {}; //!< holes only
    };

    CellRecorder(SweepEngine &engine, const CellPlan &plan)
        : engine_(engine), plan_(plan), entries_(plan.size())
    {
    }

    void
    record(std::size_t cell, Entry entry)
    {
        static Counter &failures =
            MetricsRegistry::instance().counter("sweep.cell.fail");

        // Each cell is recorded once, by the one worker resolving it.
        const Entry &e = entries_[cell] = std::move(entry);
        if (e.outcome == Outcome::Skipped)
            return; // neither reported nor done: a re-run computes it
        if (e.outcome == Outcome::Quarantined)
            failures.add();
        const ManifestCell reported = manifestCell(cell);
        TELEM_SPAN(span, "sweep.cell");
        span.tag("workload", reported.workload);
        span.tag("depth", reported.depth);
        span.tag("outcome", manifestOutcomeName(reported.outcome));
        if (engine_.manifest_)
            engine_.manifest_->cellEvent(reported);
    }

    void
    fold(std::vector<std::vector<FailureRecord>> *failures)
    {
        SweepCounters &c = engine_.counters_;
        std::uint64_t computed = 0, cached = 0, quarantined = 0,
                      skipped = 0, instructions = 0;
        engine_.last_failures_.clear();
        if (failures)
            failures->assign(plan_.names.size(), {});
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            c.cache_errors += e.corrupt;
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
                c.cache_stores += e.stored ? 1 : 0;
                c.cells_retried += e.attempts > 1 ? 1 : 0;
                break;
            }
            if (e.failure) {
                engine_.last_failures_.push_back(*e.failure);
                if (failures)
                    (*failures)[plan_.workloadOf(i)].push_back(*e.failure);
            }
            if (engine_.manifest_ && e.outcome != Outcome::Skipped)
                engine_.manifest_->recordCell(manifestCell(i));
        }
        const std::uint64_t traces = plan_.traces_generated.load();
        c.cells_total += entries_.size();
        c.cells_computed += computed;
        c.cache_hits += cached;
        c.traces_generated += traces;
        c.instructions_simulated += instructions;
        c.cells_quarantined += quarantined;
        c.cells_skipped += skipped;

        // Mirror into the process-wide registry: SweepCounters stays
        // the per-engine view, the registry the cross-engine one that
        // run manifests snapshot.
        auto &registry = MetricsRegistry::instance();
        registry.counter("sweep.cell.schedule").add(entries_.size());
        registry.counter("sweep.cell.compute").add(computed);
        registry.counter("sweep.cell.cached").add(cached);
        registry.counter("sweep.trace.generate").add(traces);
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
                plan_.configOf(cell).depth, outcome, e.seconds,
                e.instructions, e.attempts};
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
SweepEngine::resolveCells(const CellPlan &plan,
                          std::vector<std::vector<FailureRecord>> *failures)
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
    // for a walk class they do not match.
    struct Replay
    {
        std::once_flag once;
        ReplayBuffer buffer;
        ReplayAnnotations annotations;
    };
    std::vector<Replay> replays(plan.names.size());
    auto replayFor = [&](std::size_t w,
                         const PipelineConfig &config) -> const Replay & {
        Replay &r = replays[w];
        std::call_once(r.once, [&]() {
            TELEM_SPAN(prepare_span, "sweep.trace.prepare");
            prepare_span.tag("workload", plan.names[w]);
            r.buffer = plan.replay(w);
            r.annotations = annotateReplay(r.buffer, config);
        });
        return r;
    };

    /** What a cell carries from its probes to its resolution. */
    struct Pending
    {
        CacheKey key;          //!< set by the probe when caching is on
        unsigned corrupt = 0;  //!< corrupt entries met so far
        std::string cause;     //!< what() of the last failed attempt
        std::string failpoint; //!< its failpoint name when injected
    };

    // Resolve cell @p i without a walk when it can be: an interrupt
    // hole or a cache hit.
    auto probe = [&](std::size_t i, SimResult &out, Pending &p) -> bool {
        const PipelineConfig &config = plan.configOf(i);
        const std::string &name = plan.names[plan.workloadOf(i)];
        const int depth = config.depth;

        // Graceful drain (SIGINT/SIGTERM): cells not yet started
        // resolve to holes immediately; in-flight cells finish, so
        // everything already paid for lands in the cache.
        if (interruptRequested()) {
            recorder.record(
                i, {.outcome = Outcome::Skipped,
                    .corrupt = p.corrupt,
                    .failure = FailureRecord{name, depth,
                                             "skipped: interrupt drain",
                                             "", 0}});
            out = holeResult(name, config);
            return true;
        }

        if (cache_.enabled()) {
            p.key = plan.key(plan.workloadOf(i), config);
            bool corrupt = false;
            if (auto hit = cache_.load(p.key, &corrupt)) {
                hit->workload = name;
                hit->config = config;
                recorder.record(i, {.outcome = Outcome::Cached,
                                    .instructions = hit->instructions,
                                    .corrupt = p.corrupt});
                out = std::move(*hit);
                return true;
            }
            p.corrupt += corrupt ? 1 : 0;
        }
        return false;
    };

    // The one walk route: cells @p todo of the group starting at
    // @p begin, all cache misses, walk in attempt rounds. A round fires
    // sweep.cell.simulate for each cell, in cell order, then walks the
    // survivors together in one simulateMultiDepth call; a throw from
    // trace preparation or from the walk fails the attempt of every
    // survivor. Failed cells back off once per round and retry; after
    // 1 + max_retries rounds they are quarantined with their last
    // failure. Resolves every cell.
    auto walkMissing = [&](std::size_t begin,
                           std::vector<std::size_t> todo,
                           std::vector<Pending> &pending,
                           std::vector<SimResult> &out) {
        static Counter &retry_counter =
            MetricsRegistry::instance().counter("sweep.cell.retry");
        const std::size_t w = plan.workloadOf(begin);
        const std::string &name = plan.names[w];
        const auto start = std::chrono::steady_clock::now();
        for (unsigned round = 1; !todo.empty(); ++round) {
            std::vector<std::size_t> survivors, failed;
            // Called from a catch block: note the failure.
            auto fail = [&](std::size_t i) {
                describeFailure(pending[i].cause, pending[i].failpoint);
                failed.push_back(i);
            };
            for (std::size_t i : todo) {
                try {
                    PP_FAILPOINT("sweep.cell.simulate");
                    survivors.push_back(i);
                } catch (...) {
                    fail(i);
                }
            }

            std::vector<PipelineConfig> lanes;
            for (std::size_t i : survivors)
                lanes.push_back(plan.configOf(begin + i));
            std::vector<SimResult> walked;
            double seconds = 0.0;
            try {
                if (!lanes.empty()) {
                    // call_once leaves the flag unset when the
                    // preparation throws, so a retry re-prepares.
                    const Replay &r = replayFor(w, lanes.front());
                    TELEM_SPAN(span, "sweep.cell.fused");
                    span.tag("workload", name);
                    span.tag("cells",
                             static_cast<std::uint64_t>(lanes.size()));
                    const auto t0 = std::chrono::steady_clock::now();
                    walked = simulateMultiDepth(r.buffer, r.annotations,
                                                lanes);
                    seconds = secondsSince(t0);
                }
            } catch (...) {
                for (std::size_t i : survivors)
                    fail(i);
                survivors.clear();
            }
            for (std::size_t m = 0; m < survivors.size(); ++m) {
                const std::size_t i = survivors[m];
                // The walk's wall time is joint: each cell reports an
                // equal share.
                const bool stored = cache_.enabled() &&
                                    cache_.store(pending[i].key, walked[m]);
                recorder.record(
                    begin + i,
                    {.outcome = Outcome::Computed,
                     .attempts = round,
                     .seconds =
                         seconds / static_cast<double>(survivors.size()),
                     .instructions = walked[m].instructions,
                     .stored = stored,
                     .corrupt = pending[i].corrupt});
                out[i] = std::move(walked[m]);
            }

            std::sort(failed.begin(), failed.end());
            if (round > options_.max_retries) {
                for (std::size_t i : failed) {
                    const PipelineConfig &config =
                        plan.configOf(begin + i);
                    recorder.record(
                        begin + i,
                        {.outcome = Outcome::Quarantined,
                         .attempts = round,
                         .seconds = secondsSince(start),
                         .corrupt = pending[i].corrupt,
                         .failure = FailureRecord{
                             name, config.depth, pending[i].cause,
                             pending[i].failpoint, round}});
                    out[i] = holeResult(name, config);
                }
                return;
            }
            if (!failed.empty()) {
                retry_counter.add(failed.size());
                // min(10 << (round-1), 1000) ms; shift clamped so a
                // large retry count cannot overflow.
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    std::min(10u << std::min(round - 1, 7u), 1000u)));
            }
            todo = std::move(failed);
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

    auto runGroup = [&](const Group &group) -> std::vector<SimResult> {
        const std::size_t count = group.end - group.begin;
        std::vector<SimResult> out(count);
        std::vector<Pending> pending(count);
        std::vector<char> resolved(count, 0);

        // Probe every still-unresolved cell and return the indices
        // left over. The resolved flags make re-probes — the shard
        // wait loop probes after every poll round — record each cell
        // exactly once.
        auto probeMissing = [&]() {
            std::vector<std::size_t> missing;
            for (std::size_t i = 0; i < count; ++i) {
                if (resolved[i])
                    continue;
                if (probe(group.begin + i, out[i], pending[i]))
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
            walkMissing(group.begin, missing, pending, out);
            return out;
        }

        // Sharded: lock the group before walking it. The key hashes
        // the group's *content* (the plan's workload prefix, then
        // every cell config), so it is identical in every worker
        // process and every run — group order and thread count cannot
        // leak in.
        StableHasher group_hasher;
        plan.group_prefix(group_hasher, plan.workloadOf(group.begin));
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
                    walkMissing(group.begin, missing, pending, out);
                shard_coordinator_->release(group_key);
                return out;
            case ShardCoordinator::Claim::Uncoordinated:
                walkMissing(group.begin, missing, pending, out);
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
    recorder.fold(failures);
    return results;
}

std::vector<SimResult>
SweepEngine::resolveSpecs(const std::vector<WorkloadSpec> &specs,
                          std::size_t trace_length,
                          std::vector<PipelineConfig> configs,
                          std::vector<std::vector<FailureRecord>> *failures)
{
    CellPlan plan;
    for (const WorkloadSpec &spec : specs)
        plan.names.push_back(spec.name);
    plan.configs = std::move(configs);
    plan.key = [&](std::size_t s, const PipelineConfig &config) {
        return simCellKey(specs[s], trace_length, config);
    };
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
    return resolveCells(plan, failures);
}

std::vector<SweepResult>
SweepEngine::runGrid(const std::vector<WorkloadSpec> &specs,
                     const SweepOptions &options,
                     const GridTelemetry *telemetry)
{
    options.validate();

    const WallTimer timer(&counters_.wall_seconds);
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
    std::vector<std::vector<FailureRecord>> failures;
    std::vector<SimResult> runs = resolveSpecs(
        specs, options.trace_length, std::move(configs), &failures);

    TELEM_SPAN(assemble_span, "sweep.assemble");
    std::vector<SweepResult> out;
    out.reserve(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const auto begin = std::make_move_iterator(
            runs.begin() + static_cast<std::ptrdiff_t>(s * n_depths));
        out.push_back(assembleSweep(
            specs[s], options,
            std::vector<SimResult>(
                begin, begin + static_cast<std::ptrdiff_t>(n_depths)),
            std::move(failures[s])));
    }
    return out;
}

SweepResult
SweepEngine::runSweep(const WorkloadSpec &spec, const SweepOptions &options)
{
    return std::move(
        runGrid(std::vector<WorkloadSpec>{spec}, options).front());
}

std::vector<SimResult>
SweepEngine::runConfigs(const WorkloadSpec &spec, std::size_t trace_length,
                        const std::vector<PipelineConfig> &configs)
{
    // makeTrace(0) means the spec's default length, so a 0 here would
    // key that trace's cells at a second address (runGrid refuses it
    // in SweepOptions::validate).
    if (trace_length == 0)
        PP_FATAL("runConfigs: trace_length must be positive");

    const WallTimer timer(&counters_.wall_seconds);

    TELEM_SPAN(grid_span, "sweep.configs");
    grid_span.tag("workload", spec.name);
    grid_span.tag("configs", static_cast<std::uint64_t>(configs.size()));
    return resolveSpecs({spec}, trace_length, configs);
}

std::vector<SimResult>
SweepEngine::runConfigs(const Trace &trace,
                        const std::vector<PipelineConfig> &configs)
{
    const WallTimer timer(&counters_.wall_seconds);

    TELEM_SPAN(grid_span, "sweep.configs");
    grid_span.tag("workload", trace.name);
    grid_span.tag("configs", static_cast<std::uint64_t>(configs.size()));

    // Hash the records once per call, not once per config: every
    // cell's key is this state with its config appended.
    StableHasher records;
    if (cache_.enabled()) {
        TELEM_SPAN(key_span, "sweep.key");
        key_span.tag("workload", trace.name);
        key_span.tag("records",
                     static_cast<std::uint64_t>(trace.records.size()));
        records = traceCellHasher(trace);
    }

    CellPlan plan;
    plan.names = {trace.name};
    plan.configs = configs;
    plan.key = [&](std::size_t, const PipelineConfig &config) {
        StableHasher h = records;
        hashPipelineConfig(h, config);
        return h.key();
    };
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
    const SweepCounters c = counters_;
    TableWriter t(TableWriter::Style::Aligned);
    t.addColumn("cells", 0);
    t.addColumn("computed", 0);
    t.addColumn("cache_hit", 0);
    t.addColumn("hit_pct", 1);
    t.addColumn("stored", 0);
    t.addColumn("corrupt", 0);
    t.addColumn("retried", 0);
    t.addColumn("quar", 0);
    t.addColumn("skip", 0);
    t.addColumn("traces", 0);
    t.addColumn("Minstr", 1);
    t.addColumn("wall_s", 2);
    t.addColumn("sim_MIPS", 1);
    t.beginRow();
    t.cell(static_cast<unsigned long>(c.cells_total));
    t.cell(static_cast<unsigned long>(c.cells_computed));
    t.cell(static_cast<unsigned long>(c.cache_hits));
    t.cell(100.0 * c.hitRate());
    t.cell(static_cast<unsigned long>(c.cache_stores));
    t.cell(static_cast<unsigned long>(c.cache_errors));
    t.cell(static_cast<unsigned long>(c.cells_retried));
    t.cell(static_cast<unsigned long>(c.cells_quarantined));
    t.cell(static_cast<unsigned long>(c.cells_skipped));
    t.cell(static_cast<unsigned long>(c.traces_generated));
    t.cell(static_cast<double>(c.instructions_simulated) / 1e6);
    t.cell(c.wall_seconds);
    t.cell(c.simMips());
    os << "sweep engine ["
       << (cacheEnabled() ? "cache " + cache_.dir() : "cache off")
       << "]\n";
    t.render(os);

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
}

} // namespace pipedepth
