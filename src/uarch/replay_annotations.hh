/**
 * @file
 * Depth-invariant microarchitectural outcomes of a replay buffer.
 *
 * The simulator's microarchitectural state machines — the cache
 * hierarchy, the branch predictor and the store-forwarding table —
 * are driven in trace order, never by simulated time: an access
 * sequence, and therefore every hit/miss outcome, every predictor
 * verdict and every forwarding decision, is identical at depth 2 and
 * at depth 25. Only the *penalties* those outcomes incur are
 * functions of the pipeline configuration.
 *
 * annotateReplay() runs those state machines once (including the
 * warmup pass) and records the per-instruction outcomes as one flags
 * byte per op. simulate(replay, annotations, config) then replays the
 * recorded outcomes instead of re-simulating caches and predictor,
 * which is what makes a 24-depth sweep cost one annotation pass plus
 * 24 cheap timing walks instead of 24 full passes.
 *
 * The outcomes ARE configuration-dependent through the cache
 * geometries, predictor kind, warmup length and memory-dependence
 * switch, so annotations carry a key of exactly those fields;
 * simulate() rejects a mismatched key. Byte-identity of the results
 * against the direct path is pinned by the golden tests in
 * tests/sweep/test_engine_determinism.cc.
 */

#ifndef PIPEDEPTH_UARCH_REPLAY_ANNOTATIONS_HH
#define PIPEDEPTH_UARCH_REPLAY_ANNOTATIONS_HH

#include <cstdint>
#include <vector>

#include "trace/replay_buffer.hh"
#include "uarch/pipeline_config.hh"

namespace pipedepth
{

/** Per-op outcome bits recorded by annotateReplay(). */
enum AnnotationFlags : std::uint8_t
{
    kAnnICacheMiss = 1u << 0,   //!< I-cache miss on the fetch
    kAnnICacheL2Miss = 1u << 1, //!< ... and the L2 missed too
    kAnnDCacheMiss = 1u << 2,   //!< D-cache miss on the access
    kAnnDCacheL2Miss = 1u << 3, //!< ... and the L2 missed too
    kAnnForwarded = 1u << 4,    //!< load served by store forwarding
    kAnnMispredict = 1u << 5,   //!< conditional branch mispredicted
};

/**
 * The subset of a PipelineConfig that the microarchitectural
 * outcomes depend on. Two configs with equal keys produce identical
 * outcome sequences for the same replay buffer.
 */
struct MicroarchKey
{
    CacheConfig icache;
    CacheConfig dcache;
    CacheConfig l2cache;
    PredictorKind predictor = PredictorKind::Gshare;
    bool model_memory_dependences = true;
    std::size_t warmup_instructions = 0;
    std::size_t n_ops = 0; //!< ties the key to one buffer's length

    bool operator==(const MicroarchKey &o) const;
    bool operator!=(const MicroarchKey &o) const { return !(*this == o); }
};

/** Key of @p config as applied to a buffer of @p n_ops ops. */
MicroarchKey microarchKeyOf(const PipelineConfig &config,
                            std::size_t n_ops);

/** See file comment. */
struct ReplayAnnotations
{
    MicroarchKey key;
    std::vector<std::uint8_t> flags; //!< one AnnotationFlags byte per op

    /**
     * One entry per forwarded load (kAnnForwarded), in op order: the
     * sequence number (in recorded-store order) of the store that
     * forwards to it. Only memory-dependence modelling forwards, so
     * the set is empty by default. A walk reads it through a cursor
     * that advances at each forwarded load, and keeps the stores'
     * data-ready cycles in a dense array, so a forwarded load is one
     * indexed read instead of a hash probe.
     */
    std::vector<std::uint32_t> fwd_store;
    std::uint32_t num_stores = 0; //!< recorded (forwardable) stores

    /** True iff these annotations were built for @p config. */
    bool
    matches(const PipelineConfig &config, std::size_t n_ops) const
    {
        return key == microarchKeyOf(config, n_ops);
    }

    /**
     * Abort (fatal, naming the workload) unless these annotations
     * cover @p replay op for op: flags must have exactly one entry per
     * replay op, fwd_store exactly one per forwarded flag, and every
     * forwarding index must point at one of the recorded stores. The
     * timing walks read these arrays without bounds checks, so a
     * mismatched annotation set must be rejected here — with a
     * diagnosable error — instead of walking out of bounds.
     */
    void validateFor(const ReplayBuffer &replay) const;
};

/**
 * Run the caches, predictor and store table over @p replay exactly as
 * simulate() would (warmup pass included) and record the outcomes.
 */
ReplayAnnotations annotateReplay(const ReplayBuffer &replay,
                                 const PipelineConfig &config);

} // namespace pipedepth

#endif // PIPEDEPTH_UARCH_REPLAY_ANNOTATIONS_HH
