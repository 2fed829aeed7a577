#include "surrogate_sweep.hh"

#include <algorithm>
#include <cassert>

#include "core/serialize.hh"
#include "obs/metrics.hh"

namespace penelope {

void
encodeResult(ByteWriter &w, const CandidateEval &v)
{
    w.f64(v.score);
    w.f64(v.guardband);
    w.f64(v.wideFullyStressed);
    w.f64(v.narrowFullyStressed);
}

bool
decodeResult(ByteReader &r, CandidateEval &v)
{
    v.score = r.f64();
    v.guardband = r.f64();
    v.wideFullyStressed = r.f64();
    v.narrowFullyStressed = r.f64();
    return r.ok();
}

std::vector<OperandSample>
candidateOperands(const AttackConfig &attack, std::size_t count)
{
    AttackTraceGenerator gen(attack);
    return collectAdderOperands(gen, count);
}

std::vector<double>
candidateFeatures(const AttackConfig &attack, unsigned width)
{
    return operandDutyFeatures(
        candidateOperands(attack, kSurrogateFeatureSamples), width);
}

Hash128
attackCandidateKey(const Adder &adder, const AttackConfig &attack,
                   std::size_t exact_samples)
{
    CacheKeyBuilder key("attack-candidate");
    key.str(adder.name()).u32(adder.width()).u64(exact_samples);
    keyAttackConfig(key, attack);
    return key.digest();
}

CandidateEval
evaluateCandidateExact(const AdderAgingAnalysis &analysis,
                       const AttackConfig &attack,
                       std::size_t exact_samples)
{
    const auto ops = candidateOperands(attack, exact_samples);
    const auto probs = analysis.zeroProbsForOperands(ops);
    const AgingSummary summary = analysis.summarize(probs);
    CandidateEval eval;
    eval.score = analysis.meanDeviceGuardband(probs);
    eval.guardband = summary.guardband;
    eval.wideFullyStressed =
        analysis.wideFullyStressedFraction(probs);
    eval.narrowFullyStressed = summary.narrowFullyStressedFraction;
    return eval;
}

AttackConfig
randomAttackCandidate(Rng &rng)
{
    AttackConfig attack;
    attack.dataValue = rng.nextInt(std::uint64_t(1) << 32);
    attack.imm = static_cast<std::uint16_t>(rng.nextInt(1 << 16));
    // Branch period 0 disables branches; otherwise a power of two
    // in [2, 32] -- the spacings the pipeline attacks use.
    const std::uint64_t p = rng.nextInt(6);
    attack.branchPeriod =
        p == 0 ? 0 : (2u << static_cast<unsigned>(p - 1));
    return attack;
}

AttackConfig
mutateAttackCandidate(const AttackConfig &base, Rng &rng)
{
    AttackConfig attack = base;
    // One to three seeded edits per proposal, over the trace knobs
    // that shape the operand stream: the pinned source value, the
    // pinned immediate and the branch spacing.
    const std::uint64_t edits = 1 + rng.nextInt(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        switch (rng.nextInt(4)) {
          case 0:
            attack.dataValue ^= std::uint64_t(1) << rng.nextInt(32);
            break;
          case 1:
            attack.imm = static_cast<std::uint16_t>(
                attack.imm ^ (1u << rng.nextInt(16)));
            break;
          case 2: {
            // Byte-granular rewrite: lets the search jump between
            // constant patterns a single bit flip cannot reach.
            const std::uint64_t byte = rng.nextInt(256);
            const std::uint64_t pos = rng.nextInt(4);
            attack.dataValue ^= byte << (8 * pos);
            break;
          }
          default: {
            const std::uint64_t p = rng.nextInt(6);
            attack.branchPeriod =
                p == 0 ? 0 : (2u << static_cast<unsigned>(p - 1));
            break;
          }
        }
    }
    return attack;
}

namespace {

/** Exact evaluations for the selected candidate indices, through
 *  the content-addressed cache. */
std::vector<CandidateEval>
evaluateSelected(const AdderAgingAnalysis &analysis,
                 const std::vector<AttackConfig> &candidates,
                 const std::vector<std::size_t> &selected,
                 std::size_t exact_samples, const Engine &engine,
                 ResultCache *cache)
{
    return engine.mapCached<CandidateEval>(
        selected, cache,
        [&](std::size_t index, std::size_t) {
            return attackCandidateKey(
                analysis.adder(), candidates[index], exact_samples);
        },
        [&](std::size_t index, std::size_t) {
            return evaluateCandidateExact(
                analysis, candidates[index], exact_samples);
        });
}

} // namespace

CandidateSweepResult
sweepAttackCandidates(const AdderAgingAnalysis &analysis,
                      const std::vector<AttackConfig> &candidates,
                      const SurrogateFit *fit,
                      const CandidateSweepConfig &config,
                      const Engine &engine, ResultCache *cache)
{
    CandidateSweepResult result;
    if (candidates.empty())
        return result;

    if (fit) {
        const unsigned width = analysis.adder().width();
        std::vector<double> predicted(candidates.size());
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            predicted[i] =
                fit->predict(candidateFeatures(candidates[i],
                                               width));
        }
        result.evaluated = triageSelect(
            predicted, config.triageConfig, result.stats);
    } else {
        result.evaluated.resize(candidates.size());
        for (std::size_t i = 0; i < candidates.size(); ++i)
            result.evaluated[i] = i;
        result.stats.exactEvaluated += candidates.size();
    }

    result.evals = evaluateSelected(
        analysis, candidates, result.evaluated,
        config.exactSamples, engine, cache);

    // Best exact score; ties towards the lower candidate index
    // (`evaluated` is ascending).
    std::size_t best = 0;
    for (std::size_t k = 1; k < result.evals.size(); ++k) {
        if (result.evals[k].score > result.evals[best].score)
            best = k;
    }
    result.bestIndex = result.evaluated[best];
    result.best = result.evals[best];

    PENELOPE_OBS_COUNTER("surrogate.scored", "1")
        .add(result.stats.candidatesScored);
    PENELOPE_OBS_COUNTER("surrogate.pruned", "1")
        .add(result.stats.pruned);
    PENELOPE_OBS_COUNTER("surrogate.exact_evals", "1")
        .add(result.stats.exactEvaluated);
    PENELOPE_OBS_COUNTER("surrogate.audited", "1")
        .add(result.stats.audited);
    return result;
}

SurrogateFit
trainAttackSurrogate(const AdderAgingAnalysis &analysis,
                     std::size_t count,
                     const SurrogateFitConfig &fit_config,
                     std::size_t exact_samples, const Engine &engine,
                     ResultCache *cache, TriageStats &stats)
{
    // The training pool draws from the fit seed's own stream
    // space, offset far from the per-sample split streams
    // (mixSeed(seed, i) for small i) so the two never collide.
    std::vector<AttackConfig> pool;
    pool.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Rng rng(mixSeed(fit_config.seed,
                        0x4000'0000'0000'0000ULL + i));
        pool.push_back(randomAttackCandidate(rng));
    }

    std::vector<std::size_t> all(pool.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    const auto evals = evaluateSelected(
        analysis, pool, all, exact_samples, engine, cache);
    stats.trainEvaluated += evals.size();
    PENELOPE_OBS_COUNTER("surrogate.train_evals", "1")
        .add(evals.size());

    const unsigned width = analysis.adder().width();
    std::vector<SurrogateSample> samples(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        samples[i].features = candidateFeatures(pool[i], width);
        samples[i].score = evals[i].score;
    }
    return fitSurrogate(samples, fit_config);
}

} // namespace penelope
