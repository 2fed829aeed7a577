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

namespace {

constexpr unsigned kW = Netlist::kBatchWords;
constexpr std::size_t kPassLanes = std::size_t(64) * kW;

/** The eight synthetic inputs in one batched pass: lane l of word 0
 *  holds the netlist under synthetic input l (the other lanes carry
 *  zero operands and are never observed). */
std::vector<std::uint64_t>
evaluateSyntheticLanes(const Adder &adder)
{
    const std::uint64_t ones = adder.width() >= 64
        ? ~std::uint64_t(0)
        : (std::uint64_t(1) << adder.width()) - 1;
    std::uint64_t a[kPassLanes] = {};
    std::uint64_t b[kPassLanes] = {};
    std::uint64_t cin_masks[kW] = {};
    for (unsigned l = 0; l < 8; ++l) {
        const SyntheticInput &in = syntheticInputs()[l];
        a[l] = in.inputA ? ones : 0;
        b[l] = in.inputB ? ones : 0;
        if (in.carryIn)
            cin_masks[0] |= std::uint64_t(1) << l;
    }
    std::vector<std::uint64_t> net_words;
    adder.evaluateBatch(a, b, cin_masks, net_words);
    return net_words;
}

/**
 * Charge lane l of the evaluated pass @p net_words @p counts[l]
 * times (0: not live), exactly as counts[l] scalar observes of that
 * lane's operand would.  Lanes that share a multiplicity share one
 * observeBatch, with the multiplicity as its dt.
 */
void
observeWeighted(PmosAgingTracker &tracker,
                const std::vector<std::uint64_t> &net_words,
                const std::uint64_t *counts, std::size_t lanes)
{
    assert(lanes <= kPassLanes);
    std::uint64_t charged[kW] = {};
    for (std::size_t l = 0; l < lanes; ++l) {
        if (counts[l] == 0 || ((charged[l / 64] >> (l % 64)) & 1))
            continue;
        std::uint64_t lane_masks[kW] = {};
        for (std::size_t m = l; m < lanes; ++m) {
            if (counts[m] == counts[l])
                lane_masks[m / 64] |= std::uint64_t(1) << (m % 64);
        }
        for (unsigned w = 0; w < kW; ++w)
            charged[w] |= lane_masks[w];
        tracker.observeBatch(net_words.data(), lane_masks, counts[l]);
    }
}

/** Charge the synthetic lane (in @p synthetic_words) of every index
 *  in @p indices once per occurrence, so a repeated index is a lane
 *  of multiplicity 2 or more. */
void
observeRotation(PmosAgingTracker &tracker,
                const std::vector<std::uint64_t> &synthetic_words,
                const std::vector<unsigned> &indices)
{
    std::uint64_t counts[8] = {};
    for (unsigned index : indices) {
        assert(index < 8);
        ++counts[index];
    }
    observeWeighted(tracker, synthetic_words, counts, 8);
}

/** One distinct (a, b, cin) triple and how many samples carry it. */
struct WeightedOperand
{
    OperandSample op;
    std::uint64_t count;
};

bool
sameOperand(const OperandSample &x, const OperandSample &y)
{
    return x.a == y.a && x.b == y.b && x.cin == y.cin;
}

/** Table slot of a triple: MurmurHash3's 64-bit finalizer. */
std::size_t
operandHash(const OperandSample &op)
{
    std::uint64_t h = (std::uint64_t(op.a) << 32 | op.b) ^
        (op.cin ? 0x9e3779b97f4a7c15ULL : 0);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
}

/**
 * The distinct triples of @p ops with their multiplicities.  The
 * lookup is an open-addressing table of indices into the result,
 * kept at most half full, so it grows with the number of distinct
 * triples rather than with the sample count.  Repeated triples come
 * first, by descending count, so equal multiplicities sit in
 * adjacent lanes of one pass.
 */
std::vector<WeightedOperand>
distinctOperands(const std::vector<OperandSample> &ops)
{
    constexpr std::uint32_t empty = ~std::uint32_t(0);
    std::vector<WeightedOperand> distinct;
    std::vector<std::uint32_t> table(16, empty);
    const auto probe = [&](const OperandSample &op) {
        const std::size_t mask = table.size() - 1;
        std::size_t i = operandHash(op) & mask;
        while (table[i] != empty) {
            if (sameOperand(distinct[table[i]].op, op))
                break;
            i = (i + 1) & mask;
        }
        return i;
    };
    std::size_t last = 0;
    for (const OperandSample &op : ops) {
        // A run of equal samples (the common case of an attack
        // stream) skips the lookup.
        if (!distinct.empty() && sameOperand(distinct[last].op, op)) {
            ++distinct[last].count;
            continue;
        }
        const std::size_t i = probe(op);
        if (table[i] != empty) {
            last = table[i];
            ++distinct[last].count;
            continue;
        }
        last = distinct.size();
        table[i] = static_cast<std::uint32_t>(last);
        distinct.push_back({op, 1});
        if (2 * distinct.size() > table.size()) {
            table.assign(2 * table.size(), empty);
            for (std::size_t d = 0; d < distinct.size(); ++d)
                table[probe(distinct[d].op)] =
                    static_cast<std::uint32_t>(d);
        }
    }
    const auto repeated = std::partition(
        distinct.begin(), distinct.end(),
        [](const WeightedOperand &d) { return d.count > 1; });
    std::sort(distinct.begin(), repeated,
              [](const WeightedOperand &x, const WeightedOperand &y) {
                  return x.count > y.count;
              });
    return distinct;
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

AdderAgingAnalysis::AdderAgingAnalysis(const Adder &adder,
                                       const GuardbandModel &model)
    : adder_(adder), model_(model),
      syntheticWords_(evaluateSyntheticLanes(adder))
{
}

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
    assert(!indices.empty());
    PmosAgingTracker tracker(adder_.netlist());
    observeRotation(tracker, syntheticWords_, indices);
    return trackerProbs(tracker);
}

std::vector<double>
AdderAgingAnalysis::zeroProbsForOperands(
    const std::vector<OperandSample> &ops) const
{
    // The per-device counts depend only on the multiset of samples,
    // so each distinct triple takes one lane, charged with its
    // multiplicity: a constant-valued attack stream of 2048 samples
    // is one pass over 2 live lanes, a workload stream (mostly
    // distinct samples) about one lane per sample.  Padding lanes
    // carry zero operands and are never observed, so the counts --
    // hence the returned probabilities -- are the integers one
    // scalar observe per sample would add.
    const std::vector<WeightedOperand> distinct = distinctOperands(ops);
    PmosAgingTracker tracker(adder_.netlist());
    std::vector<std::uint64_t> words;
    std::uint64_t a[kPassLanes];
    std::uint64_t b[kPassLanes];
    std::uint64_t counts[kPassLanes];
    std::uint64_t cin_masks[kW];
    for (std::size_t begin = 0; begin < distinct.size();
         begin += kPassLanes) {
        const std::size_t lanes =
            std::min(kPassLanes, distinct.size() - begin);
        std::fill(cin_masks, cin_masks + kW, 0);
        for (std::size_t l = 0; l < lanes; ++l) {
            const WeightedOperand &d = distinct[begin + l];
            a[l] = d.op.a;
            b[l] = d.op.b;
            counts[l] = d.count;
            if (d.op.cin)
                cin_masks[l / 64] |= std::uint64_t(1) << (l % 64);
        }
        std::fill(a + lanes, a + kPassLanes, 0);
        std::fill(b + lanes, b + kPassLanes, 0);
        PENELOPE_OBS_COUNTER("netlist.lanes_used", "lanes")
            .add(lanes);
        adder_.evaluateBatch(a, b, cin_masks, words);
        observeWeighted(tracker, words, counts, lanes);
    }
    return trackerProbs(tracker);
}

std::vector<PairSweepEntry>
AdderAgingAnalysis::sweepPairs() const
{
    // Each pair reduces its two lanes of the synthetic pass; the
    // per-pair counts (and therefore the Figure-4 fractions) are
    // exactly those of 28 independent two-input trackers.
    std::vector<PairSweepEntry> entries;
    PmosAgingTracker tracker(adder_.netlist());
    for (const InputPair &pair : allInputPairs()) {
        tracker.reset();
        observeRotation(tracker, syntheticWords_,
                        {pair.first, pair.second});
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
