#include "driver.hh"

#include <stdexcept>
#include <utility>

namespace penelope {

SchedulerReplay::SchedulerReplay(std::vector<Scheduler *> schedulers,
                                 const SchedReplayConfig &config)
    : scheds_(std::move(schedulers)),
      config_(config),
      residence_(1.0 / config.meanResidence),
      rng_(config.seed)
{
    if (scheds_.empty())
        throw std::invalid_argument("SchedulerReplay: no scheduler");
    const unsigned entries = scheds_.front()->numEntries();
    for (const Scheduler *sched : scheds_) {
        if (sched->numEntries() != entries)
            throw std::invalid_argument(
                "SchedulerReplay: lockstep schedulers differ in "
                "numEntries");
    }
    releaseAt_.assign(entries, 0);
}

void
SchedulerReplay::diverged()
{
    throw std::logic_error(
        "SchedulerReplay: lockstep schedulers allocated different "
        "entries");
}

void
SchedulerReplay::promoteFar(Cycle now)
{
    std::size_t keep = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
        const unsigned e = far_[i];
        // Far entries are never due yet (they are promoted at the
        // last wheel-period boundary before their release cycle),
        // so the distance is a plain unsigned difference.
        if (releaseAt_[e] - now < 64)
            wheel_[releaseAt_[e] & 63] |= std::uint64_t(1) << e;
        else
            far_[keep++] = e;
    }
    far_.resize(keep);
}

RenameTags
SchedulerReplay::nextTags(const Uop &uop)
{
    // Physical tags rotate through the full tag space, which makes
    // the tag fields self-balanced, exactly as the paper observes
    // for evenly used register files and MOB slots.
    RenameTags tags;
    tags.dstTag = tagCounter_;
    tagCounter_ = (tagCounter_ + 1) & 0x7f;
    tags.src1Tag = static_cast<std::uint8_t>(
        (tagCounter_ + 17 + uop.srcReg1) & 0x7f);
    tags.src2Tag = static_cast<std::uint8_t>(
        (tagCounter_ + 43 + uop.srcReg2) & 0x7f);
    // A missing operand is trivially ready; present operands are
    // ready at allocation with the calibrated probability.
    tags.ready1 = !uop.usesSrc1() || rng_.nextBool(0.65);
    tags.ready2 = !uop.usesSrc2() || rng_.nextBool(0.55);
    return tags;
}

} // namespace penelope
