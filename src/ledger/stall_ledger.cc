#include "ledger/stall_ledger.hh"

#include "common/logging.hh"
#include "telemetry/metrics.hh"

namespace pipedepth
{

std::string
stallBucketName(StallBucket bucket)
{
    switch (bucket) {
      case StallBucket::BaseWork:
        return "base_work";
      case StallBucket::SuperscalarLoss:
        return "superscalar_loss";
      case StallBucket::Mispredict:
        return "mispredict";
      case StallBucket::ICache:
        return "icache";
      case StallBucket::DCacheMiss:
        return "dcache_miss";
      case StallBucket::DepLoad:
        return "dep_load";
      case StallBucket::DepFp:
        return "dep_fp";
      case StallBucket::DepInt:
        return "dep_int";
      case StallBucket::UnitBusy:
        return "unit_busy";
      case StallBucket::Drain:
        return "drain";
      case StallBucket::Other:
        return "other";
      case StallBucket::NumBuckets:
        break;
    }
    PP_PANIC("invalid stall bucket ",
             static_cast<int>(bucket));
}

bool
isChargeableBucket(StallBucket bucket)
{
    return bucket != StallBucket::BaseWork &&
           bucket != StallBucket::SuperscalarLoss &&
           bucket < StallBucket::NumBuckets;
}

StallLedger::StallLedger(int retire_width) : width_(retire_width)
{
    PP_ASSERT(retire_width >= 1, "retire width must be positive");
}

void
StallLedger::commit(std::int64_t retire_cycle, StallBucket cause)
{
    PP_ASSERT(!finalized_, "commit after finalize");
    PP_ASSERT(retire_cycle >= 0, "negative retire cycle");
    PP_ASSERT(retire_cycle >= prev_retire_,
              "retire cycles must be non-decreasing: ", retire_cycle,
              " after ", prev_retire_);
    PP_ASSERT(isChargeableBucket(cause),
              "cannot charge derived bucket ",
              static_cast<int>(cause));
    PP_ASSERT(retire_cycle > prev_retire_ ||
                  retired_this_cycle_ < width_,
              "more than ", width_, " retirements in cycle ",
              retire_cycle);

    commitImpl(retire_cycle, cause);
}

void
StallLedger::commitStream(std::uint64_t instructions,
                          std::uint64_t work_cycles,
                          const BucketCounts &cycles,
                          const BucketCounts &events)
{
    PP_ASSERT(!finalized_ && n_ == 0,
              "commitStream on a ledger with commits");
    PP_ASSERT(work_cycles <= instructions,
              "more retire cycles than retirements: ", work_cycles, " > ",
              instructions);
    for (StallBucket derived :
         {StallBucket::BaseWork, StallBucket::SuperscalarLoss}) {
        const auto b = static_cast<std::size_t>(derived);
        PP_ASSERT(cycles[b] == 0 && events[b] == 0,
                  "cannot charge derived bucket ", b);
    }
    n_ = instructions;
    work_cycles_ = work_cycles;
    cycles_ = cycles;
    events_ = events;
}

void
StallLedger::finalize(std::uint64_t total_cycles)
{
    PP_ASSERT(!finalized_, "finalize called twice");
    PP_ASSERT(n_ > 0, "finalize with no retirements");

    // The ideal machine retires width instructions per cycle; every
    // retire cycle beyond that floor is utilization (superscalar)
    // loss. work_cycles_ >= ceil(n/width) because no cycle retires
    // more than width instructions.
    const std::uint64_t base =
        (n_ + static_cast<std::uint64_t>(width_) - 1) /
        static_cast<std::uint64_t>(width_);
    PP_ASSERT(work_cycles_ >= base, "width accounting violated");
    cycles_[static_cast<std::size_t>(StallBucket::BaseWork)] = base;
    cycles_[static_cast<std::size_t>(StallBucket::SuperscalarLoss)] =
        work_cycles_ - base;
    finalized_ = true;
    residual_ = static_cast<std::int64_t>(total_cycles) -
                static_cast<std::int64_t>(total());

    static Counter &residual_counter =
        MetricsRegistry::instance().counter("ledger.residual.nonzero");
    if (residual_ != 0)
        residual_counter.add();
}

std::uint64_t
StallLedger::cycles(StallBucket bucket) const
{
    PP_ASSERT(finalized_, "ledger read before finalize");
    PP_ASSERT(bucket < StallBucket::NumBuckets, "invalid bucket");
    return cycles_[static_cast<std::size_t>(bucket)];
}

std::uint64_t
StallLedger::events(StallBucket bucket) const
{
    PP_ASSERT(bucket < StallBucket::NumBuckets, "invalid bucket");
    return events_[static_cast<std::size_t>(bucket)];
}

std::uint64_t
StallLedger::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : cycles_)
        sum += c;
    return sum;
}

std::int64_t
StallLedger::residual() const
{
    PP_ASSERT(finalized_, "residual read before finalize");
    return residual_;
}

} // namespace pipedepth
