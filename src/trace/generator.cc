#include "trace/generator.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "telemetry/telemetry.hh"

namespace pipedepth
{

std::string
TraceGenParams::validationError() const
{
    std::string error;
    auto fail = [&error](auto &&...parts) {
        if (error.empty())
            error = logging_detail::concat(parts...);
    };
    // NaN compares false against every bound, so plain range checks
    // silently wave it through into the generator; reject non-finite
    // values explicitly, naming the field.
    auto check_finite = [&](double v, const char *what) {
        if (!std::isfinite(v))
            fail(what, " must be finite (got ", v, ")");
    };
    auto check_frac = [&](double v, const char *what) {
        check_finite(v, what);
        if (v < 0.0 || v > 1.0)
            fail(what, " must be in [0, 1] (got ", v, ")");
    };
    check_frac(frac_load, "frac_load");
    check_frac(frac_store, "frac_store");
    check_frac(frac_alumem, "frac_alumem");
    check_frac(frac_mul, "frac_mul");
    check_frac(frac_div, "frac_div");
    check_frac(frac_fp, "frac_fp");
    if (frac_load + frac_store + frac_alumem + frac_mul + frac_div +
            frac_fp > 1.0) {
        fail("instruction-mix fractions exceed 1");
    }
    check_frac(fp_add_share, "fp_add_share");
    check_frac(fp_mul_share, "fp_mul_share");
    check_frac(fp_div_share, "fp_div_share");
    if (fp_add_share + fp_mul_share + fp_div_share > 1.0)
        fail("FP share fractions exceed 1");
    check_frac(branch_frac, "branch_frac");
    if (branch_frac >= 0.9)
        fail("branch_frac must be < 0.9 (got ", branch_frac, ")");
    check_frac(cond_branch_share, "cond_branch_share");
    if (n_blocks < 2)
        fail("need at least 2 basic blocks (got ", n_blocks, ")");
    check_frac(loop_branch_frac, "loop_branch_frac");
    check_frac(periodic_branch_frac, "periodic_branch_frac");
    check_frac(random_branch_frac, "random_branch_frac");
    if (loop_branch_frac + periodic_branch_frac + random_branch_frac > 1.0)
        fail("branch behaviour fractions exceed 1");
    check_finite(bias_margin_min, "bias_margin_min");
    if (bias_margin_min < 0.0 || bias_margin_min > 0.5)
        fail("bias_margin_min must be in [0, 0.5]");
    check_frac(biased_taken_share, "biased_taken_share");
    check_frac(backward_frac, "backward_frac");
    if (data_working_set < 4096)
        fail("data working set must be at least 4 KiB");
    if (uniform_region_bytes < 64)
        fail("uniform_region_bytes must be at least one line");
    check_frac(hot_frac, "hot_frac");
    check_frac(stream_frac, "stream_frac");
    if (hot_frac + stream_frac > 1.0)
        fail("memory style fractions exceed 1");
    check_frac(dep_near, "dep_near");
    check_finite(mean_dep_dist, "mean_dep_dist");
    if (mean_dep_dist < 1.0)
        fail("mean_dep_dist must be >= 1");
    if (length == 0)
        fail("trace length must be positive");
    return error;
}

void
TraceGenParams::validate() const
{
    const std::string error = validationError();
    if (!error.empty())
        PP_FATAL(error);
}

namespace
{

/** How a static conditional branch decides its outcome. */
enum class BranchMode : std::uint8_t
{
    Loop,     //!< strongly taken (loop back-edge), taken bias ~0.95
    Biased,   //!< fixed bias away from 0.5
    Periodic, //!< deterministic pattern of period 2..8
    Random,   //!< 50/50 every execution
};

/** Memory access style of a static RX instruction. */
enum class MemStyle : std::uint8_t
{
    Hot,    //!< uniform within a 4 KiB stack-like region
    Stream, //!< sequential, advancing by a fixed stride
    Uniform,//!< uniform over the whole working set
};

/** A static instruction template. */
struct StaticInstr
{
    OpClass op = OpClass::IntAlu;
    MemStyle mem_style = MemStyle::Hot;
    std::uint64_t mem_base = 0;   //!< region base / stream cursor origin
    std::uint64_t mem_span = 0;   //!< region size for uniform styles
    std::uint32_t stream_stride = 8;
};

/** A static conditional-branch descriptor. */
struct StaticBranch
{
    BranchMode mode = BranchMode::Biased;
    double taken_bias = 0.5;
    std::uint8_t period = 2;      //!< for Periodic
    std::uint8_t pattern_taken = 1; //!< taken executions per period
    int taken_target = 0;         //!< block index
    std::uint64_t exec_count = 0; //!< dynamic execution counter
};

/** A basic block: straight-line body plus optional terminator. */
struct Block
{
    std::uint64_t start_pc = 0;
    std::vector<StaticInstr> body; //!< excludes the terminator
    bool has_branch = true;
    bool conditional = true;
    OpClass branch_op = OpClass::BranchCond;
    StaticBranch branch;
};

constexpr std::uint64_t kCodeBase = 0x400000;
constexpr std::uint64_t kDataBase = 0x10000000;
constexpr std::uint64_t kHotRegion = 4096;
constexpr int kInstrBytes = 4;

/** Sample a non-branch op class from the mix. */
OpClass
sampleBodyOp(const TraceGenParams &p, Rng &rng)
{
    const double r = rng.uniform();
    double acc = p.frac_load;
    if (r < acc)
        return OpClass::Load;
    acc += p.frac_store;
    if (r < acc)
        return OpClass::Store;
    acc += p.frac_alumem;
    if (r < acc)
        return OpClass::IntAluMem;
    acc += p.frac_mul;
    if (r < acc)
        return OpClass::IntMul;
    acc += p.frac_div;
    if (r < acc)
        return OpClass::IntDiv;
    acc += p.frac_fp;
    if (r < acc) {
        const double f = rng.uniform();
        if (f < p.fp_add_share)
            return OpClass::FpAdd;
        if (f < p.fp_add_share + p.fp_mul_share)
            return OpClass::FpMul;
        if (f < p.fp_add_share + p.fp_mul_share + p.fp_div_share)
            return OpClass::FpDiv;
        return OpClass::FpLong;
    }
    return OpClass::IntAlu;
}

/** The static program: blocks plus layout. */
struct StaticProgram
{
    std::vector<Block> blocks;
};

StaticProgram
buildProgram(const TraceGenParams &p, Rng &rng)
{
    StaticProgram prog;
    prog.blocks.resize(static_cast<std::size_t>(p.n_blocks));

    // Mean body length such that branches are branch_frac of all
    // instructions: body + 1 terminator, E[len] = 1/branch_frac.
    const double mean_total = 1.0 / std::max(p.branch_frac, 0.02);
    const double mean_body = std::max(0.0, mean_total - 1.0);

    std::uint64_t pc = kCodeBase;
    for (int b = 0; b < p.n_blocks; ++b) {
        Block &blk = prog.blocks[static_cast<std::size_t>(b)];
        blk.start_pc = pc;

        // Body length roughly uniform in [0.5, 1.5] x mean: enough
        // variety for realistic block-size spread without the heavy
        // short-block tail of a geometric, which would bias the
        // dynamic branch fraction well above branch_frac (short
        // blocks execute disproportionately often).
        const double lo = std::max(0.0, 0.5 * mean_body);
        const double hi = 1.5 * mean_body + 1.0;
        std::size_t body_len = static_cast<std::size_t>(
            std::llround(rng.uniform(lo, hi)));
        body_len = std::min<std::size_t>(body_len, 64);
        blk.body.reserve(body_len);
        for (std::size_t i = 0; i < body_len; ++i) {
            StaticInstr si;
            si.op = sampleBodyOp(p, rng);
            if (opTraits(si.op).is_mem) {
                const double style = rng.uniform();
                if (style < p.hot_frac) {
                    si.mem_style = MemStyle::Hot;
                    si.mem_base = kDataBase;
                    si.mem_span = kHotRegion;
                } else if (style < p.hot_frac + p.stream_frac) {
                    // Streams wrap within the working set; mem_span
                    // holds the stream's random starting offset.
                    si.mem_style = MemStyle::Stream;
                    si.mem_base = kDataBase + kHotRegion;
                    si.mem_span = rng.below(p.data_working_set) & ~7ull;
                    si.stream_stride = 8;
                } else {
                    // A private region inside the working set; see
                    // TraceGenParams::uniform_region_bytes.
                    si.mem_style = MemStyle::Uniform;
                    si.mem_span = std::min<std::uint64_t>(
                        p.uniform_region_bytes, p.data_working_set);
                    const std::uint64_t slack =
                        p.data_working_set - si.mem_span;
                    si.mem_base = kDataBase + kHotRegion +
                                  (slack ? (rng.below(slack) & ~63ull)
                                         : 0);
                }
            }
            blk.body.push_back(si);
        }

        blk.conditional = rng.bernoulli(p.cond_branch_share);
        blk.branch_op = blk.conditional ? OpClass::BranchCond
                                        : OpClass::BranchUncond;

        // Behaviour of the terminator.
        StaticBranch &br = blk.branch;
        const double mode = rng.uniform();
        if (mode < p.loop_branch_frac) {
            br.mode = BranchMode::Loop;
            br.taken_bias = rng.uniform(0.92, 0.985);
        } else if (mode < p.loop_branch_frac + p.periodic_branch_frac) {
            br.mode = BranchMode::Periodic;
            br.period = static_cast<std::uint8_t>(rng.range(2, 8));
            br.pattern_taken =
                static_cast<std::uint8_t>(rng.range(1, br.period - 1));
        } else if (mode < p.loop_branch_frac + p.periodic_branch_frac +
                              p.random_branch_frac) {
            br.mode = BranchMode::Random;
            br.taken_bias = 0.5;
        } else {
            br.mode = BranchMode::Biased;
            const double margin = rng.uniform(p.bias_margin_min, 0.48);
            br.taken_bias = rng.bernoulli(p.biased_taken_share)
                                ? 0.5 + margin
                                : 0.5 - margin;
        }

        pc += static_cast<std::uint64_t>(
            (blk.body.size() + 1) * kInstrBytes);
    }

    // Wire taken targets once layout is known. Loop branches jump
    // backward to nearby blocks; other conditionals follow the
    // backward_frac mix. Unconditional branches always jump forward:
    // a cycle consisting only of unconditional branches would trap
    // the walk forever (conditional back-edges always escape through
    // their fall-through path eventually).
    for (int b = 0; b < p.n_blocks; ++b) {
        Block &blk = prog.blocks[static_cast<std::size_t>(b)];
        StaticBranch &br = blk.branch;
        if (!blk.conditional) {
            br.taken_target = static_cast<int>(
                (static_cast<std::uint64_t>(b) + rng.range(1, 16)) %
                static_cast<std::uint64_t>(p.n_blocks));
            continue;
        }
        const bool backward =
            br.mode == BranchMode::Loop || rng.bernoulli(p.backward_frac);
        if (backward && b > 0) {
            const int reach = std::min(b, 24);
            br.taken_target = b - static_cast<int>(rng.range(1, reach));
        } else {
            br.taken_target =
                static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(p.n_blocks)));
        }
    }
    return prog;
}

/** Tracks recent register producers for dependence-distance sampling. */
class DependenceTracker
{
  public:
    /**
     * With probability @p near_prob a source is a recent producer at
     * geometric distance (mean @p mean_dist), else a uniformly random
     * register.
     */
    DependenceTracker(Rng &rng, double near_prob, double mean_dist)
        : rng_(rng), near_prob_(near_prob), distance_(1.0 / mean_dist)
    {
    }

    /** Record that @p reg was written (kNoReg is ignored). */
    void
    wrote(std::uint8_t reg)
    {
        if (reg == kNoReg)
            return;
        head_ = (head_ + 1) % kWindow;
        recent_[head_] = reg;
        size_ = std::min(size_ + 1, kWindow);
    }

    /** Pick a source register from @p lo..hi. */
    std::uint8_t
    pick(std::uint8_t lo, std::uint8_t hi)
    {
        if (size_ > 0 && rng_.bernoulli(near_prob_)) {
            const std::size_t d =
                std::min<std::size_t>(distance_.draw(rng_), size_ - 1);
            const std::uint8_t reg =
                recent_[(head_ + kWindow - d) % kWindow];
            if (reg >= lo && reg <= hi)
                return reg;
        }
        return static_cast<std::uint8_t>(rng_.range(lo, hi));
    }

  private:
    /** The last kWindow producers, newest at head_. */
    static constexpr std::size_t kWindow = 64;

    Rng &rng_;
    const double near_prob_;
    const Geometric distance_;
    std::array<std::uint8_t, kWindow> recent_{};
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/**
 * The generator's one walk: build the static program from the seed,
 * then walk it for params.length dynamic instructions, handing each
 * record in order to @p sink, which keeps or flattens it. Every sink
 * sees the same records from the same draws.
 */
template <typename Sink>
void
walkProgram(const TraceGenParams &params, const std::string &name,
            Sink &&sink)
{
    TELEM_SPAN(span, "trace.generate");
    span.tag("workload", name);
    span.tag("length", static_cast<std::uint64_t>(params.length));

    params.validate();
    Rng rng(params.seed);
    StaticProgram prog = buildProgram(params, rng);

    // Per-static-instruction stream cursors (indexed by flat id).
    std::vector<std::uint64_t> stream_cursor;
    std::vector<std::size_t> stream_index(prog.blocks.size(), 0);
    std::size_t flat = 0;
    for (auto &blk : prog.blocks) {
        stream_index[static_cast<std::size_t>(&blk - prog.blocks.data())] =
            flat;
        flat += blk.body.size();
    }
    stream_cursor.assign(flat, 0);

    DependenceTracker deps(rng, params.dep_near, params.mean_dep_dist);
    std::size_t cur = 0;     // current block
    std::size_t emitted = 0; // records handed to the sink

    while (emitted < params.length) {
        Block &blk = prog.blocks[cur];
        const std::size_t base_flat = stream_index[cur];

        for (std::size_t i = 0;
             i < blk.body.size() && emitted < params.length; ++i) {
            const StaticInstr &si = blk.body[i];
            const OpTraits &t = opTraits(si.op);
            TraceRecord r;
            r.op = si.op;
            r.pc = blk.start_pc + i * kInstrBytes;

            const bool fp = t.is_fp;
            const std::uint8_t lo = fp ? kFprBase : 0;
            const std::uint8_t hi =
                fp ? static_cast<std::uint8_t>(kFprBase + kNumFprs - 1)
                   : static_cast<std::uint8_t>(kNumGprs - 1);

            if (!t.is_store) {
                r.dst = static_cast<std::uint8_t>(rng.range(lo, hi));
            }
            r.src1 = deps.pick(lo, hi);
            if (si.op != OpClass::Load)
                r.src2 = deps.pick(lo, hi);
            if (t.is_mem) {
                // Base register for address generation is an integer
                // register even for FP memory ops.
                r.src3 = deps.pick(0, kNumGprs - 1);
                switch (si.mem_style) {
                  case MemStyle::Hot:
                    r.mem_addr =
                        si.mem_base + (rng.below(si.mem_span) & ~7ull);
                    break;
                  case MemStyle::Stream: {
                    std::uint64_t &cursor =
                        stream_cursor[base_flat + i];
                    r.mem_addr = si.mem_base +
                                 (si.mem_span + cursor) %
                                     params.data_working_set;
                    cursor += si.stream_stride;
                    break;
                  }
                  case MemStyle::Uniform:
                    r.mem_addr =
                        si.mem_base + (rng.below(si.mem_span) & ~7ull);
                    break;
                }
            }
            deps.wrote(r.dst);
            sink(r);
            ++emitted;
        }

        if (emitted >= params.length)
            break;

        // Terminator branch.
        TraceRecord br;
        br.op = blk.branch_op;
        br.pc = blk.start_pc + blk.body.size() * kInstrBytes;
        br.src1 = deps.pick(0, kNumGprs - 1);

        StaticBranch &sb = blk.branch;
        bool taken = true;
        if (blk.conditional) {
            switch (sb.mode) {
              case BranchMode::Loop:
              case BranchMode::Biased:
                taken = rng.bernoulli(sb.taken_bias);
                break;
              case BranchMode::Periodic:
                taken = (sb.exec_count % sb.period) < sb.pattern_taken;
                break;
              case BranchMode::Random:
                taken = rng.bernoulli(0.5);
                break;
            }
        }
        ++sb.exec_count;
        br.taken = taken;

        // The target field is the taken destination regardless of the
        // outcome (as a real trace tape would record it).
        br.target =
            prog.blocks[static_cast<std::size_t>(sb.taken_target)]
                .start_pc;
        sink(br);
        ++emitted;
        cur = taken ? static_cast<std::size_t>(sb.taken_target)
                    : (cur + 1) % prog.blocks.size();
    }
}

} // namespace

Trace
generateTrace(const TraceGenParams &params, const std::string &name)
{
    Trace trace;
    trace.name = name;
    trace.seed = params.seed;
    trace.records.reserve(params.length);
    walkProgram(params, name, [&trace](const TraceRecord &r) {
        trace.records.push_back(r);
    });
    return trace;
}

ReplayBuffer
generateReplay(const TraceGenParams &params, const std::string &name)
{
    const ReplayFlattener flatten;
    ReplayBuffer buffer;
    buffer.name = name;
    buffer.ops.reserve(params.length);
    walkProgram(params, name, [&](const TraceRecord &r) {
        buffer.ops.push_back(flatten(r));
    });
    return buffer;
}

} // namespace pipedepth
