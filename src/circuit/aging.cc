#include "aging.hh"

#include <algorithm>
#include <cassert>
#include <vector>

namespace penelope {

PmosAgingTracker::PmosAgingTracker(const Netlist &netlist)
    : netlist_(netlist),
      deviceSlot_(netlist.pmosDeviceSlots()),
      slotNet_(netlist.pmosGateNets()),
      slotZeroTime_(slotNet_.size(), 0)
{
}

void
PmosAgingTracker::observe(const std::vector<std::uint8_t> &signals,
                          std::uint64_t dt)
{
    for (std::size_t s = 0; s < slotNet_.size(); ++s) {
        if (!signals[slotNet_[s]])
            slotZeroTime_[s] += dt;
    }
    totalTime_ += dt;
}

namespace {

/** Set bits of @p x.  std::popcount on the baseline x86-64 target
 *  is an out-of-line libgcc call, which made it most of
 *  observeBatch's cost; this form inlines on every target. */
inline std::uint64_t
popcount64(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) +
        ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (x * 0x0101010101010101ULL) >> 56;
}

} // namespace

void
PmosAgingTracker::observeBatch(const std::uint64_t *net_words,
                               const std::uint64_t *lane_masks,
                               std::uint64_t dt)
{
    // A net's zero lanes are the clear bits of its words.  Words
    // past the last non-empty mask are skipped: a pass that carries
    // only a few lanes touches only the words they sit in.
    constexpr unsigned W = Netlist::kBatchWords;
    unsigned live = W;
    while (live > 0 && lane_masks[live - 1] == 0)
        --live;
    std::uint64_t lanes = 0;
    for (unsigned w = 0; w < live; ++w)
        lanes += popcount64(lane_masks[w]);
    if (lanes == 0 || dt == 0)
        return;
    for (std::size_t s = 0; s < slotNet_.size(); ++s) {
        const std::uint64_t *words =
            net_words + std::size_t(slotNet_[s]) * W;
        std::uint64_t zeros = 0;
        for (unsigned w = 0; w < live; ++w)
            zeros += popcount64(~words[w] & lane_masks[w]);
        slotZeroTime_[s] += zeros * dt;
    }
    totalTime_ += lanes * dt;
}

void
PmosAgingTracker::applyInput(const std::vector<bool> &input_values,
                             std::uint64_t dt)
{
    netlist_.evaluate(input_values, scratch_);
    observe(scratch_, dt);
}

double
PmosAgingTracker::zeroProb(std::size_t i) const
{
    if (totalTime_ == 0)
        return 0.5;
    return static_cast<double>(
               slotZeroTime_[deviceSlot_.at(i)]) /
        static_cast<double>(totalTime_);
}

AgingSummary
PmosAgingTracker::summarize(const GuardbandModel &model,
                            double fully_stressed_threshold) const
{
    std::vector<double> probs(deviceSlot_.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
        probs[i] = zeroProb(i);
    return summarizeZeroProbs(netlist_, probs, model,
                              fully_stressed_threshold);
}

std::vector<double>
PmosAgingTracker::combinedZeroProbs(const PmosAgingTracker &other,
                                    double self_weight) const
{
    assert(&other.netlist_ == &netlist_);
    assert(self_weight >= 0.0 && self_weight <= 1.0);
    std::vector<double> out(deviceSlot_.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = self_weight * zeroProb(i) +
            (1.0 - self_weight) * other.zeroProb(i);
    }
    return out;
}

AgingSummary
PmosAgingTracker::summarizeZeroProbs(
    const Netlist &netlist, const std::vector<double> &zero_probs,
    const GuardbandModel &model, double fully_stressed_threshold)
{
    const auto &devices = netlist.pmosDevices();
    assert(zero_probs.size() == devices.size());

    AgingSummary s;
    s.numDevices = devices.size();
    std::size_t narrow_full = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const double p = zero_probs[i];
        const bool narrow = devices[i].width == WidthClass::Narrow;
        if (narrow) {
            ++s.numNarrow;
            s.worstNarrowZeroProb =
                std::max(s.worstNarrowZeroProb, p);
            if (p >= fully_stressed_threshold)
                ++narrow_full;
        } else {
            ++s.numWide;
            s.worstWideZeroProb = std::max(s.worstWideZeroProb, p);
        }
        s.guardband = std::max(
            s.guardband,
            model.guardbandForZeroProb(p, devices[i].width));
    }
    if (s.numDevices > 0) {
        s.narrowFullyStressedFraction =
            static_cast<double>(narrow_full) /
            static_cast<double>(s.numDevices);
    }
    return s;
}

void
PmosAgingTracker::reset()
{
    std::fill(slotZeroTime_.begin(), slotZeroTime_.end(), 0);
    totalTime_ = 0;
}

} // namespace penelope
