/**
 * @file
 * Tests for the surrogate triage layer: deterministic least-squares
 * fitting, feature sanity, triage selection accounting, the
 * attack-search experiment's full audit (no fit, no training
 * replays), top-K argmax coverage on candidate corpora, seed
 * reproducibility and RNG-stream isolation.  The iron rule under test throughout: the surrogate only decides what
 * the exact engine evaluates -- every printed figure is exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "common/rng.hh"
#include "core/engine.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/surrogate_sweep.hh"
#include "nbti/guardband.hh"
#include "nbti/surrogate.hh"
#include "obs/metrics.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

/** Synthetic linear corpus: score = 0.3 + sum_i w_i * f_i with no
 *  noise, so an exact fit exists and both RMSEs must be ~0. */
std::vector<SurrogateSample>
linearCorpus(std::size_t count, std::size_t features,
             std::uint64_t seed)
{
    std::vector<double> weights(features);
    Rng wrng(mixSeed(seed, 0x3e1));
    for (auto &w : weights)
        w = wrng.nextDouble() - 0.5;
    std::vector<SurrogateSample> samples(count);
    for (std::size_t i = 0; i < count; ++i) {
        Rng rng(mixSeed(seed, i));
        samples[i].features.resize(features);
        double score = 0.3;
        for (std::size_t f = 0; f < features; ++f) {
            samples[i].features[f] = rng.nextDouble();
            score += weights[f] * samples[i].features[f];
        }
        samples[i].score = score;
    }
    return samples;
}

TEST(SurrogateFit, DeterministicAcrossRuns)
{
    const auto samples = linearCorpus(80, 12, 0xf00d);
    SurrogateFitConfig config;
    const SurrogateFit a = fitSurrogate(samples, config);
    const SurrogateFit b = fitSurrogate(samples, config);
    ASSERT_EQ(a.coeffs.size(), b.coeffs.size());
    for (std::size_t c = 0; c < a.coeffs.size(); ++c)
        EXPECT_EQ(a.coeffs[c], b.coeffs[c]) << "coeff " << c;
    EXPECT_EQ(a.trainRmse, b.trainRmse);
    EXPECT_EQ(a.holdoutRmse, b.holdoutRmse);
    EXPECT_EQ(a.trainCount, b.trainCount);
    EXPECT_EQ(a.holdoutCount, b.holdoutCount);
}

TEST(SurrogateFit, RecoversNoiselessLinearModel)
{
    const auto samples = linearCorpus(200, 8, 0xbeef);
    SurrogateFitConfig config;
    const SurrogateFit fit = fitSurrogate(samples, config);
    EXPECT_EQ(fit.featureCount(), 8u);
    EXPECT_GT(fit.trainCount, 0u);
    EXPECT_GT(fit.holdoutCount, 0u);
    EXPECT_LT(fit.trainRmse, 1e-6);
    EXPECT_LT(fit.holdoutRmse, 1e-6);
    // Predictions on fresh points from the same model also match.
    const auto fresh = linearCorpus(20, 8, 0xbeef);
    for (const auto &s : fresh)
        EXPECT_NEAR(fit.predict(s.features), s.score, 1e-6);
}

TEST(SurrogateFit, SplitChangesWithSeed)
{
    const auto samples = linearCorpus(80, 6, 0x51ee9);
    SurrogateFitConfig a, b;
    b.seed = a.seed + 1;
    const SurrogateFit fa = fitSurrogate(samples, a);
    const SurrogateFit fb = fitSurrogate(samples, b);
    // Different per-sample split streams: the partition (or at
    // least its observable sizes/errors) differs.
    EXPECT_TRUE(fa.trainCount != fb.trainCount ||
                fa.trainRmse != fb.trainRmse);
}

// ----------------------------------------------------------- features

TEST(SurrogateFeatures, ZeroDutiesAreMonotoneInOperandZeros)
{
    // All-zero operand values keep every input bit at logic 0, so
    // every zero-duty feature saturates at 1; all-ones operands
    // drive the a-side duties to 0.  The feature extractor must
    // preserve that ordering bit for bit.
    AttackConfig zeros;
    zeros.dataValue = 0;
    zeros.imm = 0;
    zeros.branchPeriod = 0;
    AttackConfig ones = zeros;
    ones.dataValue = 0xffff'ffffULL;
    ones.imm = 0xffff;

    const auto f0 = candidateFeatures(zeros, 32);
    const auto f1 = candidateFeatures(ones, 32);
    ASSERT_EQ(f0.size(), operandFeatureCount(32));
    ASSERT_EQ(f1.size(), f0.size());
    for (std::size_t i = 0; i < f0.size(); ++i) {
        EXPECT_GE(f0[i], 0.0);
        EXPECT_LE(f0[i], 1.0);
        EXPECT_GE(f0[i], f1[i]) << "feature " << i;
    }
    // a-bit duties: pinned-zero operands are always zero.
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(f0[i], 1.0) << "a-bit " << i;
}

TEST(SurrogateFeatures, PredictionTracksStressOrdering)
{
    // Trained on real candidates, the surrogate must at least rank
    // the all-zero stream (maximal zero duty -> maximal NBTI
    // stress) above the alternating-bits stream.
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    TriageStats stats;
    SurrogateFitConfig config;
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, 48, config, 256, engine, nullptr, stats);
    EXPECT_EQ(stats.trainEvaluated, 48u);

    AttackConfig zeros;
    zeros.dataValue = 0;
    zeros.imm = 0;
    zeros.branchPeriod = 0;
    AttackConfig mixed = zeros;
    mixed.dataValue = 0x5555'5555ULL;
    mixed.imm = 0x5555;
    EXPECT_GT(fit.predict(candidateFeatures(zeros, 32)),
              fit.predict(candidateFeatures(mixed, 32)));
}

// ------------------------------------------------------------- triage

TEST(Triage, FullAuditSelectsEverythingInOrder)
{
    TriageConfig config;
    config.topK = 2;
    config.auditFraction = 1.0;
    TriageStats stats;
    const std::vector<double> predicted = {0.3, 0.1, 0.9, 0.5};
    const auto selected = triageSelect(predicted, config, stats);
    const std::vector<std::size_t> all = {0, 1, 2, 3};
    EXPECT_EQ(selected, all);
    EXPECT_EQ(stats.candidatesScored, 4u);
    EXPECT_EQ(stats.exactEvaluated, 4u);
    EXPECT_EQ(stats.pruned, 0u);
}

TEST(Triage, TopKPlusAuditAccounting)
{
    TriageConfig config;
    config.topK = 2;
    config.auditFraction = 0.0;
    TriageStats stats;
    const std::vector<double> predicted = {0.3, 0.1, 0.9, 0.5, 0.2};
    const auto selected = triageSelect(predicted, config, stats);
    const std::vector<std::size_t> expect = {2, 3};
    EXPECT_EQ(selected, expect); // ascending indices
    EXPECT_EQ(stats.candidatesScored, 5u);
    EXPECT_EQ(stats.exactEvaluated, 2u);
    EXPECT_EQ(stats.pruned, 3u);
    EXPECT_EQ(stats.audited, 0u);
}

// ----------------------------------------------- sweeps and coverage

ExperimentOptions
searchOptions()
{
    ExperimentOptions options;
    options.traceStride = 97;
    options.uopsPerTrace = 2'000;
    options.adderOperandSamples = 200;
    options.surrogateTrainCandidates = 24;
    options.attackSearchRestarts = 2;
    options.attackSearchGenerations = 3;
    options.attackSearchProposals = 8;
    options.attackSearchExactSamples = 256;
    return options;
}

std::string
runAttackSearchToString(const ExperimentOptions &options)
{
    registerBuiltinExperiments();
    const Experiment *exp =
        ExperimentRegistry::instance().find("attack-search");
    EXPECT_NE(exp, nullptr);
    const WorkloadSet workload;
    std::ostringstream out;
    exp->run({workload, options, out});
    return out.str();
}

TEST(AttackSearch, FullAuditFitsAndTrainsNothing)
{
    // A full audit prices every proposal exactly, so the surrogate
    // is never fitted and its training replays never run; the
    // default audit fraction does both.
    const obs::ScopedEnable enable;
    const auto count = [](const char *name) {
        const obs::Snapshot snap = obs::Registry::instance().scrape();
        const obs::SnapshotMetric *m = snap.find(name);
        return m ? m->scalar() : 0;
    };
    const std::uint64_t fits = count("surrogate.fits");
    const std::uint64_t train = count("surrogate.train_evals");
    ExperimentOptions full_audit = searchOptions();
    full_audit.surrogateAuditFraction = 1.0;
    const std::string out = runAttackSearchToString(full_audit);
    EXPECT_NE(out.find("Attack search"), std::string::npos);
    EXPECT_EQ(count("surrogate.fits"), fits);
    EXPECT_EQ(count("surrogate.train_evals"), train);

    runAttackSearchToString(searchOptions());
    EXPECT_GT(count("surrogate.fits"), fits);
    EXPECT_GT(count("surrogate.train_evals"), train);
}

TEST(AttackSearch, SeedReproducible)
{
    // Two options objects, so the second run recomputes instead of
    // reading the first one's in-memory memo.
    const std::string a = runAttackSearchToString(searchOptions());
    const std::string b = runAttackSearchToString(searchOptions());
    EXPECT_EQ(a, b);

    ExperimentOptions reseeded = searchOptions();
    reseeded.surrogateSeed ^= 0x1234'5678ULL;
    // A different surrogate seed redraws the restart starting
    // points, so the search visits different streams.
    EXPECT_NE(runAttackSearchToString(reseeded), a);
}

TEST(AttackSearch, TriagedJobsInvariant)
{
    ExperimentOptions serial = searchOptions();
    ExperimentOptions parallel = searchOptions();
    parallel.jobs = 4;
    EXPECT_EQ(runAttackSearchToString(serial),
              runAttackSearchToString(parallel));
}

TEST(SweepCoverage, TopKContainsExactArgmax)
{
    // The acceptance corpora: seeded random candidate pools; the
    // pruned sweep must always exact-evaluate the candidate the
    // exhaustive sweep crowns, and report the same best score.
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    // Default-strength training and default top-K: the coverage
    // this test pins is the one the shipping configuration gives.
    TriageStats train_stats;
    SurrogateFitConfig fit_config;
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, 96, fit_config, 512, engine, nullptr,
        train_stats);

    CandidateSweepConfig exhaustive;
    exhaustive.exactSamples = 512;
    CandidateSweepConfig pruned = exhaustive;
    pruned.triageConfig.topK = ExperimentOptions().surrogateTopK;
    pruned.triageConfig.auditFraction = 0.05;

    for (std::uint64_t corpus = 0; corpus < 3; ++corpus) {
        std::vector<AttackConfig> pool;
        for (std::size_t i = 0; i < 64; ++i) {
            Rng rng(mixSeed(0xc0de'0000 + corpus, i));
            pool.push_back(randomAttackCandidate(rng));
        }
        const CandidateSweepResult full = sweepAttackCandidates(
            analysis, pool, nullptr, exhaustive, engine, nullptr);
        const CandidateSweepResult cut = sweepAttackCandidates(
            analysis, pool, &fit, pruned, engine, nullptr);
        EXPECT_LT(cut.evaluated.size(), pool.size())
            << "corpus " << corpus;
        EXPECT_NE(std::find(cut.evaluated.begin(),
                            cut.evaluated.end(), full.bestIndex),
                  cut.evaluated.end())
            << "corpus " << corpus;
        EXPECT_EQ(cut.best.score, full.best.score)
            << "corpus " << corpus;
        EXPECT_EQ(cut.bestIndex, full.bestIndex)
            << "corpus " << corpus;
    }
}

TEST(SweepCoverage, CacheDoesNotChangeResults)
{
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    std::vector<AttackConfig> pool;
    for (std::size_t i = 0; i < 16; ++i) {
        Rng rng(mixSeed(0xcafe, i));
        pool.push_back(randomAttackCandidate(rng));
    }
    CandidateSweepConfig config;
    config.exactSamples = 256;

    ResultCache cache; // in-memory store
    const auto uncached = sweepAttackCandidates(
        analysis, pool, nullptr, config, engine, nullptr);
    const auto cold = sweepAttackCandidates(
        analysis, pool, nullptr, config, engine, &cache);
    const auto warm = sweepAttackCandidates(
        analysis, pool, nullptr, config, engine, &cache);
    EXPECT_EQ(cache.stats().hits, pool.size());
    ASSERT_EQ(cold.evals.size(), uncached.evals.size());
    for (std::size_t i = 0; i < cold.evals.size(); ++i) {
        EXPECT_EQ(cold.evals[i].score, uncached.evals[i].score);
        EXPECT_EQ(warm.evals[i].score, uncached.evals[i].score);
        EXPECT_EQ(warm.evals[i].guardband,
                  uncached.evals[i].guardband);
    }
}

TEST(SweepCoverage, ExplicitNullCacheStaysCacheFree)
{
    // Options objects carry an in-memory memo, but a null cache
    // handed straight to a sweep still means no lookup and no
    // store: `--surrogate-stats` times real exact evaluations on
    // both arms of its same-run sweep.
    const obs::ScopedEnable enable;
    const auto count = [](const char *name) {
        const obs::Snapshot snap = obs::Registry::instance().scrape();
        const obs::SnapshotMetric *m = snap.find(name);
        return m ? m->scalar() : 0;
    };
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    std::vector<AttackConfig> pool;
    for (std::size_t i = 0; i < 8; ++i) {
        Rng rng(mixSeed(0xface, i));
        pool.push_back(randomAttackCandidate(rng));
    }
    CandidateSweepConfig config;
    config.exactSamples = 128;

    const ExperimentOptions options;
    const std::uint64_t lookups =
        count("cache.hits") + count("cache.misses");
    const std::uint64_t stores = count("cache.stores");
    for (int run = 0; run < 2; ++run) {
        const auto sweep = sweepAttackCandidates(
            analysis, pool, nullptr, config, engine, nullptr);
        EXPECT_EQ(sweep.evaluated.size(), pool.size());
    }
    EXPECT_EQ(count("cache.hits") + count("cache.misses"), lookups);
    EXPECT_EQ(count("cache.stores"), stores);
    EXPECT_EQ(options.results()->size(), 0u);
}

// ------------------------------------------------- stream isolation

TEST(RngStreams, SurrogateStreamTagsArePinned)
{
    // The surrogate's derived streams, pinned: renaming a tag (or
    // touching mixSeed) silently re-draws every training pool,
    // audit pick and search trajectory, so any drift must fail
    // loudly here.  These are the streams behind the default
    // surrogateSeed.
    const std::uint64_t seed = 0x5a11'7e57'0b5eULL;
    EXPECT_EQ(mixSeed(seed, 0xf17), 0xa3e6ba6306e20e73ULL);
    EXPECT_EQ(mixSeed(seed, 0xa0d17), 0x86fa7717ba9b295eULL);
    EXPECT_EQ(mixSeed(seed, 0x5ea4c0), 0x8afb86775b8361aeULL);
    Rng fit(mixSeed(seed, 0xf17));
    Rng audit(mixSeed(seed, 0xa0d17));
    Rng search(mixSeed(seed, 0x5ea4c0));
    EXPECT_EQ(fit(), 0x2d52aa4903b1a6a8ULL);
    EXPECT_EQ(audit(), 0xcdc645985e0a47a0ULL);
    EXPECT_EQ(search(), 0x31aa577cad8aace0ULL);
}

TEST(RngStreams, TrainingPoolDisjointFromSearchStreams)
{
    // The training pool draws from mixSeed(fitSeed, 2^62 + i); the
    // search draws from mixSeed(surrogateSeed, 0x5ea4c0 + r).  The
    // first candidates of each must differ -- shared draws would
    // couple triage quality to the search trajectory.
    const std::uint64_t seed = 0x5a11'7e57'0b5eULL;
    const std::uint64_t fit_seed = mixSeed(seed, 0xf17);
    Rng train(mixSeed(fit_seed, 0x4000'0000'0000'0000ULL));
    Rng search(mixSeed(seed, 0x5ea4c0));
    const AttackConfig a = randomAttackCandidate(train);
    const AttackConfig b = randomAttackCandidate(search);
    EXPECT_TRUE(a.dataValue != b.dataValue || a.imm != b.imm ||
                a.branchPeriod != b.branchPeriod);
}

TEST(RngStreams, CacheSaltUnchangedBySurrogate)
{
    // Triage adds no new simulation semantics -- the exact engine,
    // its options and its payload codecs are untouched -- so the
    // cache salt must NOT have bumped with this feature.
    EXPECT_EQ(kResultCacheSalt, "penelope-result-cache-v1");
}

} // namespace
} // namespace penelope
