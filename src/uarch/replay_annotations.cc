#include "uarch/replay_annotations.hh"

#include <algorithm>
#include <array>

#include "branch/predictor.hh"
#include "cache/cache.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace pipedepth
{

namespace
{

bool
sameGeometry(const CacheConfig &a, const CacheConfig &b)
{
    return a.size_bytes == b.size_bytes && a.line_bytes == b.line_bytes &&
           a.associativity == b.associativity;
}

/**
 * The annotation-time twin of the simulator's store-forwarding table:
 * same geometry, same overwrite-on-collision policy, but it records
 * store *sequence numbers* so the timing walk can later look up the
 * forwarding store's depth-dependent data-ready cycle in a dense
 * array. Must mirror the table in simulator.cc exactly — the
 * forwarding *decisions* of the two tables define byte-identity.
 */
class SeqStoreTable
{
  public:
    /** lastStore() of a dword no recorded store wrote. */
    static constexpr std::uint32_t kNoStore = 0xffffffffu;

    void
    recordStore(std::uint64_t addr, std::uint32_t seq)
    {
        Entry &e = entries_[index(addr)];
        e.dword = addr >> 3;
        e.seq = seq;
        e.valid = true;
    }

    /** Sequence of the latest store to this dword, or kNoStore. */
    std::uint32_t
    lastStore(std::uint64_t addr) const
    {
        const Entry &e = entries_[index(addr)];
        if (e.valid && e.dword == (addr >> 3))
            return e.seq;
        return kNoStore;
    }

  private:
    struct Entry
    {
        std::uint64_t dword = 0;
        std::uint32_t seq = 0;
        bool valid = false;
    };

    static std::size_t
    index(std::uint64_t addr)
    {
        return (addr >> 3) & (kSize - 1);
    }

    static constexpr std::size_t kSize = 4096;
    std::array<Entry, kSize> entries_{};
};

} // namespace

bool
MicroarchKey::operator==(const MicroarchKey &o) const
{
    return sameGeometry(icache, o.icache) &&
           sameGeometry(dcache, o.dcache) &&
           sameGeometry(l2cache, o.l2cache) && predictor == o.predictor &&
           model_memory_dependences == o.model_memory_dependences &&
           warmup_instructions == o.warmup_instructions &&
           n_ops == o.n_ops;
}

void
ReplayAnnotations::validateFor(const ReplayBuffer &replay) const
{
    if (flags.size() != replay.size()) {
        PP_FATAL("replay annotations for workload '", replay.name,
                 "' cover ", flags.size(), " ops but the replay buffer ",
                 "holds ", replay.size(),
                 " — the annotations were built for a different trace");
    }
    const auto forwarded = static_cast<std::size_t>(
        std::count_if(flags.begin(), flags.end(), [](std::uint8_t f) {
            return (f & kAnnForwarded) != 0;
        }));
    if (fwd_store.size() != forwarded) {
        PP_FATAL("replay annotations for workload '", replay.name,
                 "' carry ", fwd_store.size(), " forwarding entries for ",
                 forwarded, " forwarded loads",
                 " — the annotations were built for a different trace");
    }
    for (std::size_t k = 0; k < fwd_store.size(); ++k) {
        if (fwd_store[k] >= num_stores) {
            PP_FATAL("replay annotations for workload '", replay.name,
                     "' forward load ", k, " from store ", fwd_store[k],
                     " but only ", num_stores,
                     " stores were recorded — corrupt annotation set");
        }
    }
}

MicroarchKey
microarchKeyOf(const PipelineConfig &config, std::size_t n_ops)
{
    MicroarchKey key;
    key.icache = config.icache;
    key.dcache = config.dcache;
    key.l2cache = config.l2cache;
    key.predictor = config.predictor;
    key.model_memory_dependences = config.model_memory_dependences;
    key.warmup_instructions = config.warmup_instructions;
    key.n_ops = n_ops;
    return key;
}

ReplayAnnotations
annotateReplay(const ReplayBuffer &replay, const PipelineConfig &config)
{
    TELEM_SPAN(span, "uarch.annotate");
    span.tag("workload", replay.name);
    span.tag("ops", static_cast<std::uint64_t>(replay.size()));

    ReplayAnnotations ann;
    ann.key = microarchKeyOf(config, replay.size());
    ann.flags.assign(replay.size(), 0);

    Cache icache(config.icache);
    Cache dcache(config.dcache);
    Cache l2cache(config.l2cache);
    auto predictor = makePredictor(config.predictor);
    const bool model_memdep = config.model_memory_dependences;

    // Warmup pass: identical access sequence to the simulator's
    // warmup loop (note the D side accesses the cache for *every*
    // memory op here — no forwarding decisions during warmup).
    const std::size_t warm =
        std::min(config.warmup_instructions, replay.size());
    for (std::size_t i = 0; i < warm; ++i) {
        const ReplayOp &r = replay.ops[i];
        if (r.opClass() == OpClass::BranchCond)
            predictor->predictAndTrain(r.pc, r.is(kReplayTaken));
        if (!icache.access(r.pc))
            l2cache.access(r.pc);
        if (r.is(kReplayMem) && !dcache.access(r.mem_addr))
            l2cache.access(r.mem_addr);
    }

    // Main pass: the simulator's per-instruction access sequence (the
    // I side, then the D side, then the branch resolution; the two
    // L1s interleave on the shared L2 in exactly this order).
    SeqStoreTable store_table;
    std::uint32_t stores = 0;
    for (std::size_t i = 0; i < replay.size(); ++i) {
        const ReplayOp &r = replay.ops[i];
        std::uint8_t f = 0;

        if (!icache.access(r.pc)) {
            f |= kAnnICacheMiss;
            if (!l2cache.access(r.pc))
                f |= kAnnICacheL2Miss;
        }

        if (r.is(kReplayMem)) {
            bool forwarded = false;
            if (model_memdep && r.is(kReplayLoad)) {
                const std::uint32_t seq = store_table.lastStore(r.mem_addr);
                if (seq != SeqStoreTable::kNoStore) {
                    forwarded = true;
                    f |= kAnnForwarded;
                    ann.fwd_store.push_back(seq);
                }
            }
            if (!forwarded && !dcache.access(r.mem_addr)) {
                f |= kAnnDCacheMiss;
                if (!l2cache.access(r.mem_addr))
                    f |= kAnnDCacheL2Miss;
            }
            if (model_memdep && r.is(kReplayStore)) {
                store_table.recordStore(r.mem_addr, stores);
                ++stores;
            }
        }

        if (r.opClass() == OpClass::BranchCond &&
            !predictor->predictAndTrain(r.pc, r.is(kReplayTaken))) {
            f |= kAnnMispredict;
        }

        ann.flags[i] = f;
    }
    ann.num_stores = stores;
    return ann;
}

} // namespace pipedepth
