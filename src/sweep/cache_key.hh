/**
 * @file
 * Stable content hashing for the sweep result cache.
 *
 * Every cacheable simulation cell is identified by a 128-bit key
 * derived from everything that determines its SimResult bit for bit:
 * the workload spec (name, class, every trace-generator parameter
 * including the seed), the requested trace length, the full pipeline
 * configuration (depths, buffering, technology constants, caches,
 * predictor, warm-up) and a simulator version tag. The hash is a pair
 * of independent FNV-1a streams over a canonical little-endian byte
 * encoding, so keys are identical across platforms and runs — the
 * property the on-disk cache (result_cache.hh) relies on. A cell
 * keyed by an explicit trace (a tape) cannot afford 72 FNV bytes per
 * record; its records are folded word-wise into a 128-bit digest
 * first, and the FNV streams take the digest (traceCellHasher).
 *
 * Anything that can change simulation output MUST be fed into the
 * key; bump kSimulatorVersionTag whenever simulator or trace
 * generator *semantics* change without a corresponding parameter
 * (that is the cache invalidation mechanism — see
 * docs/SWEEP_ENGINE.md).
 */

#ifndef PIPEDEPTH_SWEEP_CACHE_KEY_HH
#define PIPEDEPTH_SWEEP_CACHE_KEY_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"
#include "uarch/pipeline_config.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{

/**
 * Version tag mixed into every cache key. Bump on any change to
 * simulator, trace-generator or power-accounting semantics that is
 * not captured by an explicit parameter; stale entries then simply
 * stop being found and age out.
 */
inline constexpr const char *kSimulatorVersionTag = "pipedepth-sim-2";

/** A 128-bit content hash (two independent 64-bit FNV-1a streams). */
struct CacheKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    /** 32 lowercase hex digits; used as the cache file stem. */
    std::string hex() const;

    bool
    operator==(const CacheKey &other) const
    {
        return hi == other.hi && lo == other.lo;
    }
    bool operator!=(const CacheKey &other) const { return !(*this == other); }
};

/**
 * Incremental canonical hasher. All integers are folded in as
 * fixed-width little-endian bytes; doubles as their IEEE-754 bit
 * patterns; strings as length + bytes. The encoding (and therefore
 * the key) does not depend on host endianness or type sizes.
 */
class StableHasher
{
  public:
    void bytes(const void *data, std::size_t size);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void f64(double v);
    void str(const std::string &s);

    CacheKey key() const { return CacheKey{h1_, h2_}; }

  private:
    // FNV-1a with two different offset bases; same prime, independent
    // streams.
    std::uint64_t h1_ = 14695981039346656037ull;
    std::uint64_t h2_ = 0x9e3779b97f4a7c15ull;
};

/** Fold a full workload spec (name, class, generator params). */
void hashWorkloadSpec(StableHasher &h, const WorkloadSpec &spec);

/** Fold a full pipeline configuration. */
void hashPipelineConfig(StableHasher &h, const PipelineConfig &config);

/**
 * Key of the cell that runs @p config on the trace whose hasher state
 * is @p trace (specCellHasher or traceCellHasher): the configuration
 * appended to a copy of that state.
 */
CacheKey cellKey(StableHasher trace, const PipelineConfig &config);

/**
 * Hasher state of a catalog trace: the shared prefix of its
 * simCellKey under any configuration. It holds the version tag, the
 * domain string "spec-cell", the full workload spec and the trace
 * length. Its key() names the trace's result log (result_cache.hh).
 */
StableHasher specCellHasher(const WorkloadSpec &spec,
                            std::size_t trace_length);

/**
 * Key of one grid cell: workload spec + trace length + configuration
 * + simulator version, i.e. cellKey(specCellHasher(spec,
 * trace_length), config). The trace itself need not exist to compute
 * this (specs generate deterministically), which is what lets a warm
 * cache skip trace generation entirely.
 */
CacheKey simCellKey(const WorkloadSpec &spec, std::size_t trace_length,
                    const PipelineConfig &config);

/**
 * Hasher state after every record of @p trace: the shared prefix of
 * its traceCellKey under any configuration. It holds the version tag,
 * the domain string "trace-words", the trace's name, seed and record
 * count, then a word-wise digest of the records: each record is four
 * words (pc, mem_addr, target, and op | dst<<8 | src1<<16 | src2<<24
 * | src3<<32 | taken<<40), folded into two independent 64-bit
 * multiply-rotate lanes. Field values are folded, never a record's
 * memory, so padding bytes cannot reach the key. FNV-1a streams, so
 * appending a config to a copy of this state gives the same key as
 * hashing the whole cell, and a caller keying many configs digests the
 * records once. Its key() names the trace's result log.
 */
StableHasher traceCellHasher(const Trace &trace);

/**
 * Key of one (explicit trace, configuration) cell, for traces that do
 * not come from the catalog (tape files):
 * cellKey(traceCellHasher(trace), config).
 */
CacheKey traceCellKey(const Trace &trace, const PipelineConfig &config);

} // namespace pipedepth

#endif // PIPEDEPTH_SWEEP_CACHE_KEY_HH
