/**
 * @file
 * StallLedger: conservation-checked attribution of every cycle.
 *
 * The ledger is the authority on "where did the cycles go". It
 * observes the in-order retire point — the only place every
 * instruction passes exactly once and the point that defines the
 * run's cycle count — and decomposes the whole run into disjoint
 * buckets:
 *
 *  - BaseWork: ceil(N_I / width) cycles, the cost of the committed
 *    instructions on an ideal machine retiring at full width;
 *  - SuperscalarLoss: additional cycles in which instructions retired
 *    but below full width (utilization loss, not a stall);
 *  - one bucket per hazard class (Mispredict, ICache, DCacheMiss,
 *    DepLoad, DepFp, DepInt, UnitBusy): retire-slot bubbles charged
 *    to the constraint that delayed the next instruction to retire;
 *  - Drain: the initial pipeline fill before the first retirement
 *    (the fill-and-drain term of the paper's Eq. 1 derivation; the
 *    trailing drain is excluded because the clock stops at the last
 *    retirement);
 *  - Other: bubbles with no attributable hazard (queue refill,
 *    fetch-buffer effects).
 *
 * Accounting is exact by construction: for retire times r_0 <= r_1
 * <= ... <= r_{N-1} the per-instruction gaps telescope to
 * r_{N-1} + 1 = cycles, so after finalize()
 *
 *     sum over buckets == cycles        (the conservation invariant)
 *
 * holds with zero residual for every run. finalize() computes the
 * residual anyway (belt and braces against future bookkeeping bugs);
 * the simulator hard-fails on a nonzero residual when auditing is
 * requested and exports it as a counter otherwise. See
 * docs/STALL_ACCOUNTING.md for the full contract and how the
 * calibration extractor derives gamma and N_H from these buckets.
 */

#ifndef PIPEDEPTH_LEDGER_STALL_LEDGER_HH
#define PIPEDEPTH_LEDGER_STALL_LEDGER_HH

#include <array>
#include <cstdint>
#include <string>

namespace pipedepth
{

/** Disjoint destinations of one simulated cycle. */
enum class StallBucket : std::uint8_t
{
    BaseWork,        //!< ideal full-width retire cycles, ceil(N_I/width)
    SuperscalarLoss, //!< extra cycles retiring below full width
    Mispredict,      //!< branch mispredict redirect + refill
    ICache,          //!< instruction fetch misses
    DCacheMiss,      //!< data-side misses (constant absolute time)
    DepLoad,         //!< waits on load results / store-forwarded data
    DepFp,           //!< waits on floating-point results
    DepInt,          //!< waits on integer results (incl. agen interlocks)
    UnitBusy,        //!< occupied unpipelined unit (FPU, divider)
    Drain,           //!< initial pipeline fill before the first retire
    Other,           //!< bubbles with no attributable hazard
    NumBuckets,
};

constexpr std::size_t kNumStallBuckets =
    static_cast<std::size_t>(StallBucket::NumBuckets);

/** Bucket name for reports ("base_work", "dep_load", ...). */
std::string stallBucketName(StallBucket bucket);

/**
 * True for the buckets a commit() may charge directly (the hazard
 * classes, Drain and Other); BaseWork and SuperscalarLoss are derived
 * by finalize().
 */
bool isChargeableBucket(StallBucket bucket);

/**
 * Cycle-conservation ledger over the in-order retire stream.
 *
 * Usage: commit() once per instruction in retirement order with the
 * instruction's retire cycle and the hazard class that bound its
 * progress, then finalize() with the run's total cycle count.
 * Misuse (out-of-order retire cycles, over-width retirement,
 * charging a derived bucket, reading before finalize) panics —
 * the ledger is an auditor, so it is strict about its own inputs.
 */
class StallLedger
{
  public:
    explicit StallLedger(int retire_width);

    /**
     * Record the retirement of the next instruction in program order.
     *
     * @param retire_cycle cycle the instruction retired in
     *        (non-decreasing across calls; at most `retire_width`
     *        instructions may share a cycle)
     * @param cause the constraint that delayed this instruction; the
     *        gap of idle retire cycles since the previous retirement
     *        is charged to it (the first instruction's gap is the
     *        pipeline fill and goes to Drain regardless)
     */
    void commit(std::int64_t retire_cycle, StallBucket cause);

    /**
     * commit() without the input-validation bookkeeping: identical
     * bucket arithmetic, no precondition panics. The simulator uses
     * this once per instruction when `audit_ledger` is off; its
     * retire stream satisfies the preconditions by construction (the
     * audited mode re-checks them, and the conservation residual
     * still catches any drift at finalize()).
     */
    void
    commitFast(std::int64_t retire_cycle, StallBucket cause)
    {
        commitImpl(retire_cycle, cause);
    }

    /** Per-bucket bubble cycles or events, as commits accumulate them. */
    using BucketCounts = std::array<std::uint64_t, kNumStallBuckets>;

    /**
     * Book a whole retire stream that the caller tallied itself with
     * commitFast()'s arithmetic — the lane-group timing walk does it
     * for several lanes per instruction: @p instructions retirements
     * in @p work_cycles distinct cycles, and the idle-cycle bubbles
     * charged to each bucket (@p cycles, @p events; the derived
     * buckets hold nothing). Only on a ledger with no commits;
     * finalize() follows as usual.
     */
    void commitStream(std::uint64_t instructions,
                      std::uint64_t work_cycles, const BucketCounts &cycles,
                      const BucketCounts &events);

    /**
     * Close the books: derive BaseWork and SuperscalarLoss, then
     * compute the residual against @p total_cycles (the simulator's
     * cycle count). Call exactly once, after the last commit().
     */
    void finalize(std::uint64_t total_cycles);

    /** Cycles attributed to @p bucket (finalize() first). */
    std::uint64_t cycles(StallBucket bucket) const;

    /**
     * Stall events of @p bucket: instructions whose retirement was
     * delayed (gap of at least one idle cycle) by that cause. This is
     * the event count behind the model's N_H term.
     */
    std::uint64_t events(StallBucket bucket) const;

    /** Sum over all buckets (== total cycles when conserving). */
    std::uint64_t total() const;

    /** total_cycles - total(); zero iff the books balance. */
    std::int64_t residual() const;

    std::uint64_t instructions() const { return n_; }
    bool finalized() const { return finalized_; }

  private:
    /** The single-bucket commit fast path shared by both variants. */
    void
    commitImpl(std::int64_t retire_cycle, StallBucket cause)
    {
        const std::int64_t gap = retire_cycle - prev_retire_;
        if (gap == 0) {
            ++retired_this_cycle_;
        } else {
            ++work_cycles_;
            retired_this_cycle_ = 1;
            // Idle retire cycles between the previous retirement and
            // this one, charged to whatever held this instruction
            // back. The first instruction's gap is the pipeline fill.
            const std::int64_t bubble = gap - 1;
            if (bubble > 0) {
                const StallBucket b =
                    n_ == 0 ? StallBucket::Drain : cause;
                cycles_[static_cast<std::size_t>(b)] +=
                    static_cast<std::uint64_t>(bubble);
                ++events_[static_cast<std::size_t>(b)];
            }
        }
        prev_retire_ = retire_cycle;
        ++n_;
    }

    int width_;
    std::int64_t prev_retire_ = -1;
    int retired_this_cycle_ = 0;
    std::uint64_t n_ = 0;
    std::uint64_t work_cycles_ = 0; //!< distinct cycles with a retirement
    BucketCounts cycles_{};
    BucketCounts events_{};
    std::int64_t residual_ = 0;
    bool finalized_ = false;
};

} // namespace pipedepth

#endif // PIPEDEPTH_LEDGER_STALL_LEDGER_HH
