#include "sweep/cache_key.hh"

#include <cstring>

namespace pipedepth
{

std::string
CacheKey::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
        const std::uint64_t word = i < 8 ? hi : lo;
        const int shift = 56 - 8 * (i % 8);
        const unsigned byte = (word >> shift) & 0xff;
        out[static_cast<std::size_t>(2 * i)] = digits[byte >> 4];
        out[static_cast<std::size_t>(2 * i + 1)] = digits[byte & 0xf];
    }
    return out;
}

void
StableHasher::bytes(const void *data, std::size_t size)
{
    constexpr std::uint64_t prime = 1099511628211ull;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h1_ = (h1_ ^ p[i]) * prime;
        h2_ = (h2_ ^ p[i]) * prime;
    }
}

void
StableHasher::u64(std::uint64_t v)
{
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(buf, sizeof(buf));
}

void
StableHasher::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
StableHasher::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
StableHasher::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

namespace
{

void
hashTraceGenParams(StableHasher &h, const TraceGenParams &g)
{
    h.u64(g.seed);
    h.u64(g.length);
    h.f64(g.frac_load);
    h.f64(g.frac_store);
    h.f64(g.frac_alumem);
    h.f64(g.frac_mul);
    h.f64(g.frac_div);
    h.f64(g.frac_fp);
    h.f64(g.fp_add_share);
    h.f64(g.fp_mul_share);
    h.f64(g.fp_div_share);
    h.f64(g.branch_frac);
    h.f64(g.cond_branch_share);
    h.i64(g.n_blocks);
    h.f64(g.loop_branch_frac);
    h.f64(g.periodic_branch_frac);
    h.f64(g.random_branch_frac);
    h.f64(g.bias_margin_min);
    h.f64(g.biased_taken_share);
    h.f64(g.backward_frac);
    h.u64(g.data_working_set);
    h.f64(g.hot_frac);
    h.f64(g.stream_frac);
    h.u64(g.uniform_region_bytes);
    h.f64(g.dep_near);
    h.f64(g.mean_dep_dist);
}

void
hashCacheConfig(StableHasher &h, const CacheConfig &c)
{
    h.u64(c.size_bytes);
    h.u64(c.line_bytes);
    h.u64(c.associativity);
}

/**
 * Fold @p records into @p h through a word-wise digest: four words
 * per record into two independent 64-bit multiply-rotate lanes, an
 * xxh64 round and a murmur3 x64 body step, then both lanes. Only field
 * values are folded, never a TraceRecord's memory, so its padding
 * cannot reach a key.
 */
void
hashRecordWords(StableHasher &h, const std::vector<TraceRecord> &records)
{
    auto rotl = [](std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    };
    std::uint64_t lane1 = 0x27d4eb2f165667c5ull;
    std::uint64_t lane2 = 0x9e3779b97f4a7c15ull;
    auto word = [&](std::uint64_t w) {
        lane1 = rotl(lane1 + w * 0xc2b2ae3d27d4eb4full, 31) *
                0x9e3779b185ebca87ull;
        const std::uint64_t k =
            rotl(w * 0x87c37b91114253d5ull, 31) * 0x4cf5ad432745937full;
        lane2 = rotl(lane2 ^ k, 27) * 5 + 0x52dce729;
    };
    for (const auto &r : records) {
        word(r.pc);
        word(r.mem_addr);
        word(r.target);
        word(static_cast<std::uint64_t>(r.op) |
             std::uint64_t{r.dst} << 8 | std::uint64_t{r.src1} << 16 |
             std::uint64_t{r.src2} << 24 | std::uint64_t{r.src3} << 32 |
             std::uint64_t{r.taken} << 40);
    }
    h.u64(lane1);
    h.u64(lane2);
}

} // namespace

void
hashWorkloadSpec(StableHasher &h, const WorkloadSpec &spec)
{
    h.str(spec.name);
    h.i64(static_cast<std::int64_t>(spec.cls));
    hashTraceGenParams(h, spec.gen);
}

void
hashPipelineConfig(StableHasher &h, const PipelineConfig &config)
{
    h.i64(config.depth);
    h.i64(config.width);
    h.i64(config.agen_width);
    h.u64(config.in_order ? 1 : 0);
    for (int d : config.unit_depth)
        h.i64(d);
    // The groups follow from the depths; they stay folded so that no
    // cell's address moves.
    const auto groups = config.mergeGroups();
    h.u64(groups.size());
    for (const auto &group : groups) {
        h.u64(group.size());
        for (Unit u : group)
            h.i64(static_cast<std::int64_t>(u));
    }
    h.i64(config.fetch_buffer);
    h.i64(config.agen_queue);
    h.i64(config.exec_queue);
    h.i64(config.max_inflight);
    h.u64(config.warmup_instructions);
    h.u64(config.model_memory_dependences ? 1 : 0);
    h.f64(config.t_p);
    h.f64(config.t_o);
    h.f64(config.l2_latency_fo4);
    h.f64(config.mem_latency_fo4);
    h.f64(config.fwd_frac);
    hashCacheConfig(h, config.icache);
    hashCacheConfig(h, config.dcache);
    hashCacheConfig(h, config.l2cache);
    h.i64(static_cast<std::int64_t>(config.predictor));
}

CacheKey
cellKey(StableHasher trace, const PipelineConfig &config)
{
    hashPipelineConfig(trace, config);
    return trace.key();
}

StableHasher
specCellHasher(const WorkloadSpec &spec, std::size_t trace_length)
{
    StableHasher h;
    h.str(kSimulatorVersionTag);
    h.str("spec-cell");
    hashWorkloadSpec(h, spec);
    h.u64(trace_length);
    return h;
}

CacheKey
simCellKey(const WorkloadSpec &spec, std::size_t trace_length,
           const PipelineConfig &config)
{
    return cellKey(specCellHasher(spec, trace_length), config);
}

StableHasher
traceCellHasher(const Trace &trace)
{
    StableHasher h;
    h.str(kSimulatorVersionTag);
    h.str("trace-words");
    h.str(trace.name);
    h.u64(trace.seed);
    h.u64(trace.records.size());
    hashRecordWords(h, trace.records);
    return h;
}

CacheKey
traceCellKey(const Trace &trace, const PipelineConfig &config)
{
    return cellKey(traceCellHasher(trace), config);
}

} // namespace pipedepth
