/**
 * @file
 * Property tests for the word-parallel netlist engine against the
 * scalar oracle (Netlist::evaluate + PmosAgingTracker::applyInput):
 * evaluateBatch bit-for-bit on random netlists (every gate type,
 * 1..300 vectors, so a partial final batch ends in each of the
 * Netlist::kBatchWords words), batched adder sums against scalar
 * sums, batched-vs-scalar aging identity on the Figure-2 circuit,
 * random netlists (empty and partial lane-mask words, dt > 1) and
 * the Ladner-Fischer adder (workload, attack and repeated operand
 * streams, whose distinct triples are priced once with their
 * multiplicities), and the idempotent-finalize contract.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "adder/idle_inputs.hh"
#include "circuit/aging.hh"
#include "circuit/netlist.hh"
#include "common/bitword.hh"
#include "common/rng.hh"
#include "core/surrogate_sweep.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ------------------------------------------------------ transpose

TEST(Transpose64, MatchesNaiveGather)
{
    Rng rng(0x7a5);
    std::uint64_t in[64];
    std::uint64_t out[64];
    for (int i = 0; i < 64; ++i)
        in[i] = out[i] = rng();
    transpose64x64(out);
    for (unsigned r = 0; r < 64; ++r)
        for (unsigned c = 0; c < 64; ++c)
            ASSERT_EQ((in[r] >> c) & 1, (out[c] >> r) & 1)
                << "row " << r << " col " << c;
}

TEST(Transpose64, InvolutionRestoresInput)
{
    Rng rng(0x7a6);
    std::uint64_t in[64];
    std::uint64_t m[64];
    for (int i = 0; i < 64; ++i)
        in[i] = m[i] = rng();
    transpose64x64(m);
    transpose64x64(m);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(m[i], in[i]);
}

// ------------------------------------------------- random netlists

/**
 * Build a random netlist exercising every builder (primitive and
 * composite, so the compiled stream sees Inv, Nand2/NandK,
 * Nor2/NorK, TgPass and constants).
 */
Netlist
randomNetlist(Rng &rng, unsigned num_inputs, unsigned num_gates)
{
    Netlist n;
    std::vector<SignalId> pool;
    for (unsigned i = 0; i < num_inputs; ++i)
        pool.push_back(n.addInput());
    pool.push_back(n.addConst(false));
    pool.push_back(n.addConst(true));

    const auto pick = [&] {
        return pool[rng.nextInt(
            static_cast<std::uint32_t>(pool.size()))];
    };
    for (unsigned g = 0; g < num_gates; ++g) {
        SignalId out = invalidSignal;
        switch (rng.nextInt(10)) {
          case 0:
            out = n.addInv(pick());
            break;
          case 1:
            out = n.addNand({pick(), pick()});
            break;
          case 2:
            out = n.addNor({pick(), pick()});
            break;
          case 3: {
            // Wide NAND/NOR: 3..5 fanins exercise the K-ary ops.
            std::vector<SignalId> fanin;
            const unsigned k = 3 + rng.nextInt(3);
            for (unsigned i = 0; i < k; ++i)
                fanin.push_back(pick());
            out = rng.nextBool() ? n.addNand(fanin)
                                 : n.addNor(fanin);
            break;
          }
          case 4:
            out = n.addAnd(pick(), pick());
            break;
          case 5:
            out = n.addOr(pick(), pick());
            break;
          case 6:
            out = n.addXor(pick(), pick());
            break;
          case 7:
            out = n.addXnor(pick(), pick());
            break;
          case 8:
            out = n.addMux(pick(), pick(), pick());
            break;
          default:
            out = n.addTgXor(pick(), pick());
            break;
        }
        pool.push_back(out);
    }
    n.finalize();
    return n;
}

constexpr unsigned kW = Netlist::kBatchWords;
constexpr std::size_t kBatchLanes = std::size_t(64) * kW;

/** Interleaved [input * kW + w] lane words of vectors
 *  [begin, begin + count) of @p inputs (unused lanes are 0). */
std::vector<std::uint64_t>
packInputs(const std::vector<std::vector<bool>> &inputs,
           std::size_t num_inputs, std::size_t begin, std::size_t count)
{
    std::vector<std::uint64_t> words(num_inputs * kW, 0);
    for (std::size_t l = 0; l < count; ++l)
        for (std::size_t i = 0; i < num_inputs; ++i)
            if (inputs[begin + l][i])
                words[i * kW + l / 64] |= std::uint64_t(1) << (l % 64);
    return words;
}

/** Lane masks selecting the first @p count lanes of a batch. */
std::vector<std::uint64_t>
laneMasks(std::size_t count)
{
    std::vector<std::uint64_t> masks(kW, 0);
    for (std::size_t l = 0; l < count; ++l)
        masks[l / 64] |= std::uint64_t(1) << (l % 64);
    return masks;
}

/** Scalar-vs-batch identity of every net and of the aging counts
 *  (charged @p dt per vector) over @p num_vectors random vectors. */
void
checkBatchMatchesScalar(const Netlist &n, Rng &rng,
                        std::size_t num_vectors, std::uint64_t dt = 1)
{
    std::vector<std::vector<bool>> inputs(num_vectors);
    for (auto &v : inputs) {
        v.resize(n.numInputs());
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = rng.nextBool();
    }

    std::vector<std::uint8_t> scalar;
    std::vector<std::uint64_t> words;
    PmosAgingTracker scalar_tracker(n);
    PmosAgingTracker batched_tracker(n);
    for (std::size_t begin = 0; begin < num_vectors;
         begin += kBatchLanes) {
        const std::size_t count =
            std::min(kBatchLanes, num_vectors - begin);
        const auto input_words =
            packInputs(inputs, n.numInputs(), begin, count);
        n.evaluateBatch(input_words.data(), words);
        ASSERT_EQ(words.size(), n.numSignals() * kW);
        batched_tracker.observeBatch(words.data(),
                                     laneMasks(count).data(), dt);
        for (std::size_t l = 0; l < count; ++l) {
            n.evaluate(inputs[begin + l], scalar);
            scalar_tracker.observe(scalar, dt);
            for (std::size_t s = 0; s < n.numSignals(); ++s) {
                ASSERT_EQ((words[s * kW + l / 64] >> (l % 64)) & 1,
                          scalar[s])
                    << "vector " << begin + l << " net " << s;
            }
        }
    }
    for (std::size_t d = 0; d < scalar_tracker.numDevices(); ++d) {
        ASSERT_EQ(batched_tracker.zeroProb(d),
                  scalar_tracker.zeroProb(d))
            << "device " << d;
    }
}

TEST(NetlistBatch, RandomNetlistsMatchScalar)
{
    Rng rng(0xba7c4);
    for (int trial = 0; trial < 20; ++trial) {
        const unsigned num_inputs = 1 + rng.nextInt(12);
        const unsigned num_gates = 1 + rng.nextInt(60);
        Netlist n = randomNetlist(rng, num_inputs, num_gates);
        // Vector counts whose last batch ends inside word 0, 1, 2
        // and 3, on a word boundary, and in a second pass.
        for (std::size_t vectors :
             {1, 7, 64, 65, 128, 129, 200, 256, 257, 300}) {
            checkBatchMatchesScalar(n, rng, vectors,
                                    1 + rng.nextInt(4));
        }
    }
}

TEST(NetlistBatch, Figure2MatchesScalar)
{
    Netlist n;
    buildFigure2Circuit(n);
    n.finalize();
    Rng rng(0xf19);
    checkBatchMatchesScalar(n, rng, 100);
}

// ---------------------------------------------------- adder sums

/** Lane @p l's sum (and carry-out) read out of the batch words. */
std::uint64_t
laneSum(const Adder &adder, const std::vector<std::uint64_t> &words,
        std::size_t l, bool &cout)
{
    const auto bit = [&](SignalId s) {
        return (words[s * kW + l / 64] >> (l % 64)) & 1;
    };
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < adder.width(); ++i)
        sum |= bit(adder.sumSignals()[i]) << i;
    cout = bit(adder.coutSignal()) != 0;
    return sum;
}

/** Batched sums of @p adder over one full pass of random operands
 *  equal the scalar evaluate() of every lane. */
void
checkSumsMatchScalar(const Adder &adder, Rng &rng)
{
    const std::uint64_t mask = adder.width() >= 64
        ? ~std::uint64_t(0)
        : (std::uint64_t(1) << adder.width()) - 1;
    std::uint64_t a[kBatchLanes];
    std::uint64_t b[kBatchLanes];
    std::uint64_t cin_masks[kW];
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
        a[l] = rng() & mask;
        b[l] = rng() & mask;
    }
    for (auto &m : cin_masks)
        m = rng();
    std::vector<std::uint64_t> words;
    adder.evaluateBatch(a, b, cin_masks, words);
    ASSERT_EQ(words.size(), adder.netlist().numSignals() * kW);
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
        bool cout = false;
        bool expect_cout = false;
        const std::uint64_t expect = adder.evaluate(
            a[l], b[l], (cin_masks[l / 64] >> (l % 64)) & 1,
            &expect_cout);
        EXPECT_EQ(laneSum(adder, words, l, cout), expect)
            << "lane " << l;
        EXPECT_EQ(cout, expect_cout) << "lane " << l;
    }
}

TEST(AdderBatch, SumsMatchScalarEvaluate)
{
    for (unsigned width : {1u, 8u, 13u, 32u, 48u, 64u}) {
        LadnerFischerAdder adder(width);
        Rng rng(width);
        checkSumsMatchScalar(adder, rng);
    }
}

TEST(AdderBatch, RippleAndKoggeStoneMatchToo)
{
    RippleCarryAdder rc(24);
    KoggeStoneAdder ks(24);
    for (const Adder *adder : {static_cast<const Adder *>(&rc),
                               static_cast<const Adder *>(&ks)}) {
        Rng rng(0x5eed);
        checkSumsMatchScalar(*adder, rng);
    }
}

// -------------------------------------------------- aging identity

/** Exact equality of two summaries (all fields are derived from
 *  integer counts, so batched == scalar must hold bit-for-bit). */
void
expectSummariesIdentical(const AgingSummary &x,
                         const AgingSummary &y)
{
    EXPECT_EQ(x.worstNarrowZeroProb, y.worstNarrowZeroProb);
    EXPECT_EQ(x.worstWideZeroProb, y.worstWideZeroProb);
    EXPECT_EQ(x.narrowFullyStressedFraction,
              y.narrowFullyStressedFraction);
    EXPECT_EQ(x.guardband, y.guardband);
    EXPECT_EQ(x.numDevices, y.numDevices);
    EXPECT_EQ(x.numNarrow, y.numNarrow);
    EXPECT_EQ(x.numWide, y.numWide);
}

TEST(AgingBatch, Figure2SummaryIdentity)
{
    Netlist n;
    buildFigure2Circuit(n);
    n.finalize();

    Rng rng(0xa91);
    const std::size_t num_vectors = 150; // 2 full + 1 partial word
    std::vector<std::vector<bool>> inputs(num_vectors);
    for (auto &v : inputs)
        v = {rng.nextBool(), rng.nextBool(), rng.nextBool()};

    PmosAgingTracker scalar(n);
    for (const auto &v : inputs)
        scalar.applyInput(v);

    PmosAgingTracker batched(n);
    std::vector<std::uint64_t> words;
    const auto input_words =
        packInputs(inputs, n.numInputs(), 0, num_vectors);
    n.evaluateBatch(input_words.data(), words);
    batched.observeBatch(words.data(), laneMasks(num_vectors).data());

    ASSERT_EQ(scalar.numDevices(), batched.numDevices());
    for (std::size_t i = 0; i < scalar.numDevices(); ++i)
        EXPECT_EQ(scalar.zeroProb(i), batched.zeroProb(i));
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    expectSummariesIdentical(scalar.summarize(model),
                             batched.summarize(model));
}

/** Per-device zero probabilities of one scalar applyInput per
 *  sample of @p ops: the oracle of zeroProbsForOperands. */
std::vector<double>
scalarOperandProbs(const Adder &adder,
                   const std::vector<OperandSample> &ops)
{
    PmosAgingTracker scalar(adder.netlist());
    std::vector<bool> in;
    for (const auto &op : ops) {
        adder.fillInputVector(in, op.a, op.b, op.cin);
        scalar.applyInput(in);
    }
    std::vector<double> probs(scalar.numDevices());
    for (std::size_t i = 0; i < probs.size(); ++i)
        probs[i] = scalar.zeroProb(i);
    return probs;
}

/** Number of distinct (a, b, cin) triples in @p ops. */
std::size_t
distinctTriples(const std::vector<OperandSample> &ops)
{
    std::set<std::tuple<std::uint32_t, std::uint32_t, bool>> seen;
    for (const auto &op : ops)
        seen.insert({op.a, op.b, op.cin});
    return seen.size();
}

TEST(AgingBatch, LadnerFischerOperandIdentity)
{
    // The Figure-5 real-input path: batched zeroProbsForOperands
    // must equal one scalar applyInput per sample, bit for bit.
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(2);
    const auto ops = collectAdderOperands(gen, 333);
    ASSERT_FALSE(ops.empty());

    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    const auto batched = analysis.zeroProbsForOperands(ops);
    const auto scalar = scalarOperandProbs(adder, ops);
    ASSERT_EQ(batched.size(), scalar.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
        EXPECT_EQ(batched[i], scalar[i]) << "device " << i;
}

TEST(AgingBatch, RepeatedOperandIdentity)
{
    // zeroProbsForOperands prices each distinct triple once and
    // charges its multiplicity; the result must still equal one
    // scalar applyInput per sample.
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    std::vector<std::pair<std::string, std::vector<OperandSample>>>
        cases;

    // (a) An attack candidate: a constant-valued stream, 2 distinct
    // triples (add and subtract) over 2048 samples.
    Rng rng(0xa77ac);
    cases.emplace_back(
        "attack", candidateOperands(randomAttackCandidate(rng), 2048));
    EXPECT_EQ(distinctTriples(cases.back().second), 2u);

    // (b) A workload stream with every sample repeated one to three
    // times and shuffled: more than one pass of distinct triples,
    // with mixed multiplicities in the same pass.
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(5);
    const auto base = collectAdderOperands(gen, 400);
    std::vector<OperandSample> repeated;
    for (std::size_t i = 0; i < base.size(); ++i)
        repeated.insert(repeated.end(), 1 + i % 3, base[i]);
    for (std::size_t i = repeated.size(); i > 1; --i)
        std::swap(repeated[i - 1], repeated[rng.nextInt(i)]);
    EXPECT_GT(distinctTriples(repeated), kBatchLanes);
    cases.emplace_back("repeated workload", repeated);

    // (c) A single sample.
    cases.emplace_back("single",
                       std::vector<OperandSample>{{0x1234u, 0xffu, true}});

    for (const auto &[label, ops] : cases) {
        const auto batched = analysis.zeroProbsForOperands(ops);
        const auto scalar = scalarOperandProbs(adder, ops);
        ASSERT_EQ(batched.size(), scalar.size()) << label;
        for (std::size_t i = 0; i < batched.size(); ++i)
            EXPECT_EQ(batched[i], scalar[i])
                << label << " device " << i;
    }
}

TEST(AgingBatch, SyntheticRotationIdentity)
{
    // zeroProbsForInput / -Pair / -Inputs against scalar
    // round-robin applyInput.
    LadnerFischerAdder adder(16);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    const std::vector<std::vector<unsigned>> rotations = {
        {0}, {7}, {0, 7}, {2, 5}, {0, 7, 3, 4}, {0, 7, 0, 3, 0, 3}};
    for (const auto &rotation : rotations) {
        const auto batched = analysis.zeroProbsForInputs(rotation);
        PmosAgingTracker scalar(adder.netlist());
        std::vector<bool> in;
        for (unsigned index : rotation) {
            syntheticVector(adder, index, in);
            scalar.applyInput(in);
        }
        ASSERT_EQ(batched.size(), scalar.numDevices());
        for (std::size_t i = 0; i < batched.size(); ++i)
            EXPECT_EQ(batched[i], scalar.zeroProb(i));
    }
}

TEST(AgingBatch, PairSweepMatchesScalarSweep)
{
    // The single-pass Figure-4 sweep equals 28 scalar two-input
    // sweeps exactly.
    LadnerFischerAdder adder(32);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    AdderAgingAnalysis analysis(adder, model);
    const auto sweep = analysis.sweepPairs();
    ASSERT_EQ(sweep.size(), 28u);
    std::vector<bool> in;
    for (const auto &entry : sweep) {
        PmosAgingTracker scalar(adder.netlist());
        syntheticVector(adder, entry.pair.first, in);
        scalar.applyInput(in);
        syntheticVector(adder, entry.pair.second, in);
        scalar.applyInput(in);
        const AgingSummary s = scalar.summarize(model);
        EXPECT_EQ(entry.narrowFullyStressedFraction,
                  s.narrowFullyStressedFraction)
            << "pair " << pairLabel(entry.pair);
    }
}

TEST(AgingBatch, ObserveBatchWithDt)
{
    // dt > 1 charges every valid lane dt units, like scalar
    // observes with the same dt (mixed dts, so dropping dt shows).
    Netlist n;
    const SignalId a = n.addInput();
    n.addInv(a);
    n.finalize();

    PmosAgingTracker batched(n);
    std::vector<std::uint64_t> words;
    const std::uint64_t in[kW] = {0, ~std::uint64_t(0), 0, 0};
    n.evaluateBatch(in, words); // input 0 in word 0, 1 in word 1
    const std::uint64_t zero_lanes[kW] = {0x7, 0, 0, 0};
    batched.observeBatch(words.data(), zero_lanes, 5); // 3 lanes, dt 5
    const std::uint64_t one_lane[kW] = {0, 0x1, 0, 0};
    batched.observeBatch(words.data(), one_lane, 1); // 1 lane, dt 1

    PmosAgingTracker scalar(n);
    for (int i = 0; i < 3; ++i)
        scalar.applyInput({false}, 5);
    scalar.applyInput({true}, 1);
    EXPECT_EQ(batched.zeroProb(0), scalar.zeroProb(0));
    EXPECT_EQ(batched.zeroProb(0), 15.0 / 16.0);
}

TEST(AgingBatch, MaskedWordsMatchScalar)
{
    // A full word, a partial word, an empty middle word and a
    // sparse last word, charged dt = 3: exactly one scalar
    // applyInput(dt = 3) per selected lane.
    static_assert(kW == 4, "lane_masks below cover four words");
    Rng rng(0x0b5e);
    Netlist n = randomNetlist(rng, 8, 40);
    std::uint64_t in[8 * kW];
    for (auto &w : in)
        w = rng();
    const std::uint64_t lane_masks[kW] = {
        ~std::uint64_t(0), 0x3ff, 0, 0xffff0000ffff0000ull};

    std::vector<std::uint64_t> words;
    n.evaluateBatch(in, words);
    PmosAgingTracker batched(n);
    batched.observeBatch(words.data(), lane_masks, 3);

    PmosAgingTracker scalar(n);
    std::vector<bool> vec(8);
    for (unsigned w = 0; w < kW; ++w) {
        for (unsigned l = 0; l < 64; ++l) {
            if (!((lane_masks[w] >> l) & 1))
                continue;
            for (std::size_t i = 0; i < 8; ++i)
                vec[i] = (in[i * kW + w] >> l) & 1;
            scalar.applyInput(vec, 3);
        }
    }
    for (std::size_t d = 0; d < scalar.numDevices(); ++d) {
        ASSERT_EQ(batched.zeroProb(d), scalar.zeroProb(d))
            << "device " << d;
    }
}

TEST(AgingBatch, PaddedLanesIgnored)
{
    // Garbage in lanes outside the mask must not leak into the
    // statistics (constants drive every lane).
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId c1 = n.addConst(true);
    n.addNand({a, c1});
    n.addInv(a);
    n.finalize();

    std::vector<std::uint64_t> words;
    const std::uint64_t in[kW] = {0x1}; // lane 0 = 1, other lanes 0
    n.evaluateBatch(in, words);
    PmosAgingTracker tracker(n);
    const std::uint64_t lane_masks[kW] = {0x1};
    tracker.observeBatch(words.data(), lane_masks);
    for (std::size_t i = 0; i < tracker.numDevices(); ++i) {
        // Every gate input is 1 in the one valid lane.
        EXPECT_EQ(tracker.zeroProb(i), 0.0) << "device " << i;
    }
}

// ---------------------------------------------- finalize contract

TEST(NetlistBatch, FinalizeIsIdempotent)
{
    Netlist n;
    buildFigure2Circuit(n);
    n.finalize();
    const std::size_t pmos = n.numPmos();
    const std::size_t ops = n.numCompiledOps();
    const unsigned depth = n.depth();

    // A second call -- same or different fanout threshold -- is a
    // no-op: no device double-extraction, no recompilation.
    n.finalize();
    n.finalize(2);
    EXPECT_EQ(n.numPmos(), pmos);
    EXPECT_EQ(n.numCompiledOps(), ops);
    EXPECT_EQ(n.depth(), depth);
}

TEST(NetlistBatch, AdderDefensiveRefinalizeIsNoOp)
{
    LadnerFischerAdder adder(16);
    Netlist &n = adder.netlist();
    const std::size_t pmos = n.numPmos();
    const std::size_t ops = n.numCompiledOps();
    n.finalize();
    EXPECT_EQ(n.numPmos(), pmos);
    EXPECT_EQ(n.numCompiledOps(), ops);
}

} // namespace
} // namespace penelope
