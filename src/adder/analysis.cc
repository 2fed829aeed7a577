#include "analysis.hh"

#include <algorithm>
#include <cassert>

#include "common/bitword.hh"
#include "common/duty.hh"
#include "obs/metrics.hh"

namespace penelope {

std::vector<double>
operandDutyFeatures(const std::vector<OperandSample> &ops,
                    unsigned width)
{
    assert(width <= 32);
    // One BitBiasTracker bit per input signal: a-bits, b-bits,
    // carry-in.  Each 64-sample chunk is transposed into the
    // lane-word layout observeBatch consumes, so the per-bit duty
    // sums cost one popcount per input bit per chunk.
    BitBiasTracker tracker(operandFeatureCount(width));
    std::vector<std::uint64_t> words(operandFeatureCount(width));
    std::uint64_t ta[64];
    std::uint64_t tb[64];
    for (std::size_t begin = 0; begin < ops.size(); begin += 64) {
        const std::size_t count =
            std::min<std::size_t>(64, ops.size() - begin);
        std::uint64_t cin_mask = 0;
        for (std::size_t l = 0; l < count; ++l) {
            const OperandSample &op = ops[begin + l];
            ta[l] = op.a;
            tb[l] = op.b;
            if (op.cin)
                cin_mask |= std::uint64_t(1) << l;
        }
        std::fill(ta + count, ta + 64, 0);
        std::fill(tb + count, tb + 64, 0);
        transpose64x64(ta);
        transpose64x64(tb);
        for (unsigned bit = 0; bit < width; ++bit) {
            words[bit] = ta[bit];
            words[width + bit] = tb[bit];
        }
        words[2 * width] = cin_mask;
        const std::uint64_t lane_mask = count == 64
            ? ~std::uint64_t(0)
            : (std::uint64_t(1) << count) - 1;
        tracker.observeBatch(words.data(), lane_mask);
    }
    return tracker.biasVector();
}

AdderAgingAnalysis::AdderAgingAnalysis(const Adder &adder,
                                       const GuardbandModel &model)
    : adder_(adder), model_(model)
{
}

namespace {

/** Operand triple of synthetic input @p index for @p adder. */
void
syntheticOperands(const Adder &adder, unsigned index,
                  std::uint64_t &a, std::uint64_t &b, bool &cin)
{
    assert(index < 8);
    const SyntheticInput &in = syntheticInputs()[index];
    const std::uint64_t ones = adder.width() >= 64
        ? ~std::uint64_t(0)
        : (std::uint64_t(1) << adder.width()) - 1;
    a = in.inputA ? ones : 0;
    b = in.inputB ? ones : 0;
    cin = in.carryIn;
}

/** One batched pass over all eight synthetic inputs: lane l of
 *  word 0 holds the netlist under synthetic input l (the other
 *  words carry zero operands and are never observed). */
void
evaluateSyntheticLanes(const Adder &adder,
                       std::vector<std::uint64_t> &net_words)
{
    constexpr std::size_t lanes = std::size_t(64) * Netlist::kBatchWords;
    std::uint64_t a[lanes] = {};
    std::uint64_t b[lanes] = {};
    std::uint64_t cin_masks[Netlist::kBatchWords] = {};
    for (unsigned l = 0; l < 8; ++l) {
        bool cin = false;
        syntheticOperands(adder, l, a[l], b[l], cin);
        if (cin)
            cin_masks[0] |= std::uint64_t(1) << l;
    }
    adder.evaluateBatch(a, b, cin_masks, net_words);
}

/** Charge the synthetic lanes @p mask selects (all in word 0). */
void
observeSyntheticLanes(PmosAgingTracker &tracker,
                      const std::vector<std::uint64_t> &net_words,
                      std::uint64_t mask)
{
    const std::uint64_t lane_masks[Netlist::kBatchWords] = {mask};
    tracker.observeBatch(net_words.data(), lane_masks);
}

std::vector<double>
trackerProbs(const PmosAgingTracker &tracker)
{
    std::vector<double> probs(tracker.numDevices());
    for (std::size_t i = 0; i < probs.size(); ++i)
        probs[i] = tracker.zeroProb(i);
    return probs;
}

} // namespace

std::vector<double>
AdderAgingAnalysis::zeroProbsForInput(unsigned index) const
{
    return zeroProbsForInputs({index});
}

std::vector<double>
AdderAgingAnalysis::zeroProbsForPair(const InputPair &pair) const
{
    return zeroProbsForInputs({pair.first, pair.second});
}

std::vector<double>
AdderAgingAnalysis::zeroProbsForInputs(
    const std::vector<unsigned> &indices) const
{
    assert(!indices.empty() && indices.size() <= 64);
    std::vector<std::uint64_t> words;
    evaluateSyntheticLanes(adder_, words);
    // Round-robin over the requested inputs: each occurrence
    // selects its synthetic lane once (a repeated index charges its
    // lane repeatedly, matching one applyInput per occurrence --
    // observeBatch per occurrence keeps the integer sums identical).
    PmosAgingTracker tracker(adder_.netlist());
    for (unsigned index : indices) {
        assert(index < 8);
        observeSyntheticLanes(tracker, words,
                              std::uint64_t(1) << index);
    }
    return trackerProbs(tracker);
}

std::vector<double>
AdderAgingAnalysis::zeroProbsForOperands(
    const std::vector<OperandSample> &ops) const
{
    // One op-stream pass covers kBatchWords * 64 operand samples.
    // Padding lanes carry zero operands and are masked out of the
    // accounting, so the per-device counts -- hence the returned
    // probabilities -- do not depend on the chunking.
    constexpr unsigned W = Netlist::kBatchWords;
    constexpr std::size_t chunk = std::size_t(64) * W;
    PmosAgingTracker tracker(adder_.netlist());
    std::vector<std::uint64_t> words;
    std::uint64_t a[chunk];
    std::uint64_t b[chunk];
    std::uint64_t cin_masks[W];
    std::uint64_t lane_masks[W];
    for (std::size_t begin = 0; begin < ops.size(); begin += chunk) {
        const std::size_t count =
            std::min<std::size_t>(chunk, ops.size() - begin);
        std::fill(cin_masks, cin_masks + W, 0);
        for (std::size_t l = 0; l < count; ++l) {
            const OperandSample &op = ops[begin + l];
            a[l] = op.a;
            b[l] = op.b;
            if (op.cin)
                cin_masks[l / 64] |= std::uint64_t(1) << (l % 64);
        }
        std::fill(a + count, a + chunk, 0);
        std::fill(b + count, b + chunk, 0);
        for (unsigned w = 0; w < W; ++w) {
            const std::size_t word_lanes = count <= w * 64
                ? 0
                : std::min<std::size_t>(64, count - w * 64);
            lane_masks[w] = word_lanes == 64
                ? ~std::uint64_t(0)
                : (std::uint64_t(1) << word_lanes) - 1;
        }
        PENELOPE_OBS_COUNTER("netlist.lanes_used", "lanes")
            .add(count);
        adder_.evaluateBatch(a, b, cin_masks, words);
        tracker.observeBatch(words.data(), lane_masks);
    }
    return trackerProbs(tracker);
}

std::vector<PairSweepEntry>
AdderAgingAnalysis::sweepPairs() const
{
    // One batched netlist pass covers all eight synthetic inputs;
    // each pair then reduces its two lanes.  The per-pair counts
    // (and therefore the Figure-4 fractions) are exactly those of
    // 28 independent two-input trackers.
    std::vector<std::uint64_t> words;
    evaluateSyntheticLanes(adder_, words);
    std::vector<PairSweepEntry> entries;
    PmosAgingTracker tracker(adder_.netlist());
    for (const InputPair &pair : allInputPairs()) {
        tracker.reset();
        observeSyntheticLanes(tracker, words,
                              (std::uint64_t(1) << pair.first) |
                                  (std::uint64_t(1) << pair.second));
        const AgingSummary s = summarize(trackerProbs(tracker));
        entries.push_back({pair, s.narrowFullyStressedFraction});
    }
    return entries;
}

InputPair
AdderAgingAnalysis::bestPair() const
{
    const auto entries = sweepPairs();
    assert(!entries.empty());
    const auto it = std::min_element(
        entries.begin(), entries.end(),
        [](const PairSweepEntry &x, const PairSweepEntry &y) {
            return x.narrowFullyStressedFraction <
                y.narrowFullyStressedFraction;
        });
    return it->pair;
}

double
AdderAgingAnalysis::scenarioGuardband(
    const std::vector<double> &real_probs, double utilization,
    const InputPair &pair) const
{
    assert(utilization >= 0.0 && utilization <= 1.0);
    const auto pair_probs = zeroProbsForPair(pair);
    assert(pair_probs.size() == real_probs.size());
    std::vector<double> mixed(real_probs.size());
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        mixed[i] = utilization * real_probs[i] +
            (1.0 - utilization) * pair_probs[i];
    }
    return summarize(mixed).guardband;
}

double
AdderAgingAnalysis::baselineGuardband(
    const std::vector<double> &real_probs) const
{
    return summarize(real_probs).guardband;
}

double
AdderAgingAnalysis::meanDeviceGuardband(
    const std::vector<double> &zero_probs) const
{
    const auto &devices = adder_.netlist().pmosDevices();
    assert(zero_probs.size() == devices.size());
    if (devices.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        sum += model_.guardbandForZeroProb(zero_probs[i],
                                           devices[i].width);
    }
    return sum / static_cast<double>(devices.size());
}

double
AdderAgingAnalysis::wideFullyStressedFraction(
    const std::vector<double> &zero_probs) const
{
    const auto &devices = adder_.netlist().pmosDevices();
    assert(zero_probs.size() == devices.size());
    std::size_t wide = 0;
    std::size_t full = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        if (devices[i].width != WidthClass::Wide)
            continue;
        ++wide;
        if (zero_probs[i] >= 0.9999)
            ++full;
    }
    return wide == 0
        ? 0.0
        : static_cast<double>(full) / static_cast<double>(wide);
}

AgingSummary
AdderAgingAnalysis::summarize(
    const std::vector<double> &zero_probs) const
{
    return PmosAgingTracker::summarizeZeroProbs(
        adder_.netlist(), zero_probs, model_);
}

} // namespace penelope
