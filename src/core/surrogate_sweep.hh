/**
 * @file
 * Surrogate-triaged candidate sweeps: the integration layer between
 * the fitted duty -> degradation predictor (nbti/surrogate.hh) and
 * the exact adder aging engine (adder/analysis.hh).
 *
 * A *candidate* is a set of adversarial trace parameters
 * (AttackConfig); its exact degradation is measured by generating
 * the candidate's operand stream and replaying it through the
 * batched netlist engine.  A sweep over N candidates therefore
 * costs N exact replays -- unless the surrogate prunes it: score
 * every candidate from a cheap 64-sample feature prefix, then run
 * the exact engine only on the predicted top-K plus a seeded audit
 * sample.
 *
 * Contract (shared with the rest of the repo):
 *  - every CandidateEval the callers print comes from the exact
 *    engine; the surrogate only selects indices;
 *  - all exact evaluations flow through Engine::mapCached under the
 *    content-addressed "attack-candidate" domain, so pruned,
 *    exhaustive and repeated sweeps share warm entries;
 *  - a sweep given no fit evaluates every candidate and is
 *    byte-identical to the pre-surrogate behaviour -- same draws,
 *    same merges, same keys.
 */

#ifndef PENELOPE_CORE_SURROGATE_SWEEP_HH
#define PENELOPE_CORE_SURROGATE_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "adder/analysis.hh"
#include "core/engine.hh"
#include "nbti/surrogate.hh"
#include "trace/attack.hh"

namespace penelope {

/** Exact engine verdict on one candidate stream. */
struct CandidateEval
{
    /** Mean per-device guardband -- the search objective. */
    double score = 0.0;
    /** Saturated worst-case guardband. */
    double guardband = 0.0;
    double wideFullyStressed = 0.0;
    double narrowFullyStressed = 0.0;
};

void encodeResult(ByteWriter &w, const CandidateEval &v);
bool decodeResult(ByteReader &r, CandidateEval &v);

/** Number of operand samples in the surrogate's feature prefix
 *  (one transpose batch). */
constexpr std::size_t kSurrogateFeatureSamples = 64;

/** Operand stream of a candidate: the first @p count adder
 *  operations of its adversarial uop stream. */
std::vector<OperandSample>
candidateOperands(const AttackConfig &attack, std::size_t count);

/** Surrogate feature vector of a candidate: per-input-bit zero
 *  duties of the 64-sample stream prefix. */
std::vector<double>
candidateFeatures(const AttackConfig &attack, unsigned width);

/** Content hash of one exact candidate evaluation.  Covers the
 *  trace parameters that shape the operand stream, the sample
 *  count and the adder topology -- everything that determines the
 *  replay's result. */
Hash128
attackCandidateKey(const Adder &adder, const AttackConfig &attack,
                   std::size_t exact_samples);

/** Exact evaluation of one candidate: replay @p exact_samples
 *  operands through the batched netlist engine and summarise. */
CandidateEval
evaluateCandidateExact(const AdderAgingAnalysis &analysis,
                       const AttackConfig &attack,
                       std::size_t exact_samples);

/** Fresh random candidate from the search stream @p rng. */
AttackConfig randomAttackCandidate(Rng &rng);

/** Mutated copy of @p base: a handful of seeded bit flips and
 *  parameter nudges on the trace knobs the adversary controls. */
AttackConfig mutateAttackCandidate(const AttackConfig &base,
                                   Rng &rng);

/** Sweep sizing and triage knobs. */
struct CandidateSweepConfig
{
    /** Read only by sweeps given a fit. */
    TriageConfig triageConfig;
    /** Operand samples per exact evaluation. */
    std::size_t exactSamples = 2048;
};

/** Outcome of one sweep: exact verdicts for the evaluated subset. */
struct CandidateSweepResult
{
    /** Ascending candidate indices the exact engine ran. */
    std::vector<std::size_t> evaluated;
    /** Exact verdicts, parallel to `evaluated`. */
    std::vector<CandidateEval> evals;
    /** Candidate index of the best exact score (ties towards the
     *  lower index). */
    std::size_t bestIndex = 0;
    CandidateEval best;
    TriageStats stats;
};

/**
 * Sweep @p candidates for the highest exact degradation score.
 * Given a @p fit, the sweep triages: the fit scores every candidate
 * from its feature prefix and only the predicted top-K plus the
 * audit sample pay for exact evaluation.  With @p fit null every
 * candidate is evaluated exactly.  Exact runs go through
 * @p engine.mapCached under the "attack-candidate" domain.
 */
CandidateSweepResult
sweepAttackCandidates(const AdderAgingAnalysis &analysis,
                      const std::vector<AttackConfig> &candidates,
                      const SurrogateFit *fit,
                      const CandidateSweepConfig &config,
                      const Engine &engine, ResultCache *cache);

/**
 * Fit the surrogate for @p analysis' adder: draw @p count training
 * candidates from the fit stream (mixSeed(fit_config.seed, 1e9+i),
 * disjoint from every search stream), evaluate them exactly
 * (cached) and fit on their feature/score pairs.  The exact
 * evaluations are accounted in @p stats.trainEvaluated.
 */
SurrogateFit
trainAttackSurrogate(const AdderAgingAnalysis &analysis,
                     std::size_t count,
                     const SurrogateFitConfig &fit_config,
                     std::size_t exact_samples, const Engine &engine,
                     ResultCache *cache, TriageStats &stats);

} // namespace penelope

#endif // PENELOPE_CORE_SURROGATE_SWEEP_HH
