/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot paths:
 * netlist evaluation, cache accesses, trace generation, the RD
 * aging model and the scheduler repair machinery.  These guard the
 * simulation throughput the experiment harnesses depend on.
 *
 * The Engine* benchmarks run whole experiments through the parallel
 * experiment engine at several --jobs settings (argument = worker
 * count); on an N-core machine jobs:N should approach an N-fold
 * real-time speedup over jobs:1 because per-trace simulations share
 * no state.  Results are recorded in BENCH_perf.json
 * (--benchmark_out=BENCH_perf.json --benchmark_out_format=json).
 */

#include <benchmark/benchmark.h>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "cache/timing.hh"
#include "circuit/aging.hh"
#include "common/threadpool.hh"
#include "core/experiments.hh"
#include "core/resultcache.hh"
#include "core/serialize.hh"
#include "core/surrogate_sweep.hh"
#include "nbti/rd_model.hh"
#include "obs/metrics.hh"
#include "regfile/driver.hh"
#include "scheduler/driver.hh"
#include "trace/workload.hh"

using namespace penelope;

namespace {

// ------------------------------------------------------ hot paths

void
BM_LadnerFischerEvaluate(benchmark::State &state)
{
    LadnerFischerAdder adder(32);
    Rng rng(1);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sum += adder.evaluate(rng() & 0xffffffff,
                              rng() & 0xffffffff, rng.nextBool());
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LadnerFischerEvaluate);

constexpr unsigned kBatchLanes = 64 * Netlist::kBatchWords;

/** Random 32-bit operands and carry-ins filling one batch pass. */
struct BatchOperands
{
    std::uint64_t a[kBatchLanes];
    std::uint64_t b[kBatchLanes];
    std::uint64_t cinMasks[Netlist::kBatchWords];

    BatchOperands()
    {
        Rng rng(1);
        for (unsigned i = 0; i < kBatchLanes; ++i) {
            a[i] = rng() & 0xffffffff;
            b[i] = rng() & 0xffffffff;
        }
        for (std::uint64_t &mask : cinMasks)
            mask = rng();
    }
};

/** Batched evaluate of a 32-bit @p AdderT: 256 vectors per pass,
 *  items/s counts vectors. */
template <class AdderT>
void
evaluateBatchLoop(benchmark::State &state)
{
    AdderT adder(32);
    const BatchOperands ops;
    std::vector<std::uint64_t> words;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        adder.evaluateBatch(ops.a, ops.b, ops.cinMasks, words);
        acc += words.back();
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * kBatchLanes);
}

/** The word-parallel netlist engine on the Ladner-Fischer adder.
 *  The per-vector speedup over BM_LadnerFischerEvaluate is the ratio
 *  of the two items_per_second counters (the CI perf floor asserts
 *  >= 10x). */
void
BM_NetlistEvaluateBatch(benchmark::State &state)
{
    evaluateBatchLoop<LadnerFischerAdder>(state);
}
BENCHMARK(BM_NetlistEvaluateBatch);

/** Batched evaluate on the Kogge-Stone adder, the largest of the
 *  three topologies. */
void
BM_KoggeStoneEvaluateBatch(benchmark::State &state)
{
    evaluateBatchLoop<KoggeStoneAdder>(state);
}
BENCHMARK(BM_KoggeStoneEvaluateBatch);

/** Scalar aging observe: one evaluated vector, one pass over the
 *  per-net slots. */
void
BM_AgingObserve(benchmark::State &state)
{
    LadnerFischerAdder adder(32);
    PmosAgingTracker tracker(adder.netlist());
    std::vector<std::uint8_t> signals;
    adder.netlist().evaluate(
        adder.makeInputVector(0x12345678, 0x9abcdef0, false),
        signals);
    for (auto _ : state)
        tracker.observe(signals);
    benchmark::DoNotOptimize(tracker.zeroProb(0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AgingObserve);

/** Batched aging observe: 256 vectors charged per call as
 *  popcounts of the complemented net lane words. */
void
BM_AgingObserveBatch(benchmark::State &state)
{
    LadnerFischerAdder adder(32);
    PmosAgingTracker tracker(adder.netlist());
    const BatchOperands ops;
    std::vector<std::uint64_t> words;
    adder.evaluateBatch(ops.a, ops.b, ops.cinMasks, words);
    std::uint64_t lane_masks[Netlist::kBatchWords];
    for (std::uint64_t &mask : lane_masks)
        mask = ~std::uint64_t(0);
    for (auto _ : state)
        tracker.observeBatch(words.data(), lane_masks);
    benchmark::DoNotOptimize(tracker.zeroProb(0));
    state.SetItemsProcessed(state.iterations() * kBatchLanes);
}
BENCHMARK(BM_AgingObserveBatch);

/** End-to-end batched aging of real operand samples (the Figure-5
 *  real-input path): collapse to distinct triples, then transpose +
 *  netlist batch + popcount observe per 64 * Netlist::kBatchWords
 *  distinct triples. */
void
BM_AdderAgingPipeline(benchmark::State &state)
{
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const auto ops = collectAdderOperands(gen, 2048);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    for (auto _ : state) {
        const auto probs = analysis.zeroProbsForOperands(ops);
        benchmark::DoNotOptimize(probs.data());
    }
    state.SetItemsProcessed(state.iterations() * ops.size());
}
BENCHMARK(BM_AdderAgingPipeline)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------- surrogate triage

/** One exact candidate evaluation: the unit the surrogate's triage
 *  avoids.  Compare with BM_SurrogateFeatures + BM_SurrogatePredict
 *  for the cheap-tier cost ratio (the CI Release floor asserts the
 *  predict step alone is >= 100x cheaper same-run). */
void
BM_AttackCandidateExact(benchmark::State &state)
{
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    Rng rng(mixSeed(0x5a11'7e57'0b5eULL, 0xbe9c4));
    const AttackConfig attack = randomAttackCandidate(rng);
    for (auto _ : state) {
        const CandidateEval eval =
            evaluateCandidateExact(analysis, attack, 2048);
        benchmark::DoNotOptimize(eval.score);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttackCandidateExact)->Unit(benchmark::kMicrosecond);

/** Feature extraction for one candidate: generate the 64-sample
 *  stream prefix and reduce it to per-input-bit zero duties. */
void
BM_SurrogateFeatures(benchmark::State &state)
{
    Rng rng(mixSeed(0x5a11'7e57'0b5eULL, 0xbe9c4));
    const AttackConfig attack = randomAttackCandidate(rng);
    for (auto _ : state) {
        const auto features = candidateFeatures(attack, 32);
        benchmark::DoNotOptimize(features.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SurrogateFeatures);

/** The closed-form predictor on a pre-extracted feature vector. */
void
BM_SurrogatePredict(benchmark::State &state)
{
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    TriageStats stats;
    SurrogateFitConfig config;
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, 32, config, 256, engine, nullptr, stats);
    Rng rng(mixSeed(0x5a11'7e57'0b5eULL, 0xbe9c4));
    const auto features =
        candidateFeatures(randomAttackCandidate(rng), 32);
    double sink = 0.0;
    for (auto _ : state)
        sink += fit.predict(features);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SurrogatePredict);

/** Surrogate fitting itself (ridge normal equations over the
 *  training pool's feature/score pairs), excluding the exact
 *  evaluations that price the pool. */
void
BM_SurrogateFitSolve(benchmark::State &state)
{
    std::vector<SurrogateSample> samples(96);
    Rng rng(0x5eed);
    for (auto &s : samples) {
        s.features.resize(65);
        for (auto &f : s.features)
            f = rng.nextDouble();
        s.score = rng.nextDouble() * 0.05;
    }
    const SurrogateFitConfig config;
    for (auto _ : state) {
        const SurrogateFit fit = fitSurrogate(samples, config);
        benchmark::DoNotOptimize(fit.coeffs.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SurrogateFitSolve)->Unit(benchmark::kMicrosecond);

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc += static_cast<std::uint64_t>(gen.next().cls);
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_GeometricDraw(benchmark::State &state)
{
    // Arg 0: a GeometricDist built per draw, paying log1p(-p) every
    // time; arg 1: one held across draws, as the trace generator and
    // the scheduler replay hold theirs.  Both return the same draws.
    Rng rng(3);
    const double p = 1.0 / 8.0;
    const GeometricDist dist(p);
    std::uint64_t acc = 0;
    if (state.range(0) == 0) {
        double opaque_p = p;
        for (auto _ : state) {
            // Opaque p: keeps the log1p inside the loop.
            benchmark::DoNotOptimize(opaque_p);
            acc += GeometricDist(opaque_p)(rng);
        }
    } else {
        for (auto _ : state)
            acc += dist(rng);
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeometricDraw)->Arg(0)->Arg(1);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache{CacheConfig()};
    Rng rng(2);
    Cycle now = 0;
    for (auto _ : state) {
        cache.access(rng.nextInt(1 << 20) * 64, false, ++now,
                     rng());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CacheAccessLineFixed(benchmark::State &state)
{
    Cache cache{CacheConfig()};
    cache.setPolicy(std::make_unique<LineFixedInversion>(0.5));
    Rng rng(3);
    Cycle now = 0;
    for (auto _ : state) {
        cache.tick(now);
        cache.access(rng.nextInt(1 << 20) * 64, false, ++now,
                     rng());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessLineFixed);

/** Real cache traffic: one MemTimingSim replay of a MemStream
 *  drawn from workload trace 0 (20k uops; 91% DL0 and 98% DTLB
 *  hits, where BM_CacheAccess almost always misses).  Arg 0:
 *  None/None; arg 1: LineFixed50 on the DL0.  items/s counts uops.
 */
void
BM_MemStreamReplay(benchmark::State &state)
{
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const MemStream stream = MemStream::generate(gen, 20000);
    const MechanismKind dl0 = state.range(0) == 0
        ? MechanismKind::None
        : MechanismKind::LineFixed50;
    double cycles = 0.0;
    for (auto _ : state) {
        MemTimingSim sim(CacheConfig(), CacheConfig::tlb(128, 8),
                         MemTimingParams(), dl0, MechanismKind::None,
                         ExperimentOptions().mechanismTimeScale);
        cycles += sim.run(stream).cycles;
    }
    benchmark::DoNotOptimize(cycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_MemStreamReplay)->Arg(0)->Arg(1);

/** The duty-accounting kernel itself: observe values of mixed
 *  density at mixed dt, the pattern the replay drivers produce.
 *  Arg = tracker width (32 = INT RF / scheduler fields, 64 = cache
 *  data images, 80 = FP RF). */
void
BM_BitBiasObserve(benchmark::State &state)
{
    const unsigned width = static_cast<unsigned>(state.range(0));
    Rng rng(4);
    std::vector<BitWord> values;
    std::vector<std::uint64_t> dts;
    for (int i = 0; i < 4096; ++i) {
        std::uint64_t lo = rng();
        std::uint64_t hi = rng();
        const int kind = static_cast<int>(rng.nextInt(4));
        if (kind == 0) {
            lo = hi = 0;
        } else if (kind == 1) {
            lo &= rng() & rng();
            hi &= rng() & rng();
        }
        values.emplace_back(width, lo, hi);
        dts.push_back(1 + rng.nextInt(256));
    }
    BitBiasTracker tracker(width);
    std::size_t i = 0;
    for (auto _ : state) {
        tracker.observe(values[i & 4095], dts[i & 4095]);
        ++i;
    }
    benchmark::DoNotOptimize(tracker.maxZeroProbability());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitBiasObserve)->Arg(32)->Arg(64)->Arg(80);

/** The batched sibling: 64 values per observeBatch call, packed
 *  as per-bit lane words (the transpose64x64 layout).  Items =
 *  values observed, directly comparable per item to
 *  BM_BitBiasObserve at dt-heavy call mixes. */
void
BM_BitBiasObserveBatch(benchmark::State &state)
{
    const unsigned width = static_cast<unsigned>(state.range(0));
    Rng rng(4);
    std::vector<std::uint64_t> words(width);
    for (std::uint64_t &word : words)
        word = rng();
    BitBiasTracker tracker(width);
    for (auto _ : state)
        tracker.observeBatch(words.data(), ~std::uint64_t(0));
    benchmark::DoNotOptimize(tracker.maxZeroProbability());
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BitBiasObserveBatch)->Arg(32)->Arg(64)->Arg(80);

void
BM_RdModelObserve(benchmark::State &state)
{
    RdModel model;
    bool level = false;
    for (auto _ : state) {
        model.observe(level, 1.0);
        level = !level;
    }
    benchmark::DoNotOptimize(model.nit());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RdModelObserve);

void
BM_SchedulerReplay(benchmark::State &state)
{
    WorkloadSet workload;
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig{});
    TraceGenerator gen = workload.generator(0);
    for (auto _ : state)
        replay.run(gen, 256);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SchedulerReplay);

void
BM_RegFileReplay(benchmark::State &state)
{
    WorkloadSet workload;
    RegisterFile rf{RegFileConfig()};
    rf.enableIsv(true);
    RegFileReplay replay(rf, RegReplayConfig{});
    TraceGenerator gen = workload.generator(1);
    for (auto _ : state)
        replay.run(gen, 256);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RegFileReplay);

// ------------------------------------ parallel experiment engine

/** Engine sizing for the serial-vs-parallel comparisons: small
 *  enough to iterate, large enough that per-trace work dominates
 *  the pool overhead.  Each iteration builds fresh options: copies
 *  share one in-memory result memo, so reusing an options object
 *  would time memo hits instead of simulations. */
ExperimentOptions
engineOptions(unsigned jobs)
{
    ExperimentOptions options;
    options.traceStride = 16;
    options.uopsPerTrace = 10'000;
    options.cacheUops = 10'000;
    options.jobs = jobs;
    return options;
}

void
BM_EngineRegFileExperiment(benchmark::State &state)
{
    WorkloadSet workload;
    const auto jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const auto r = runRegFileExperiment(workload, false,
                                            engineOptions(jobs));
        benchmark::DoNotOptimize(r.baselineWorst);
    }
}
BENCHMARK(BM_EngineRegFileExperiment)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_Table3Grid(benchmark::State &state)
{
    // All 29 Table-3 cells (27 grid, WayFixed, combined CPI) over
    // the strided traces: one trace-major pass.
    WorkloadSet workload;
    const auto jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const Table3Result r =
            runTable3Experiment(workload, engineOptions(jobs));
        benchmark::DoNotOptimize(r.combinedCpi);
    }
}
BENCHMARK(BM_Table3Grid)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_ParallelForOverhead(benchmark::State &state)
{
    // Empty bodies: measures pure pool spin-up/teardown per call,
    // the fixed cost an experiment pays for going parallel.
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        parallelFor(64, jobs, [](std::size_t i) {
            benchmark::DoNotOptimize(i);
        });
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelForOverhead)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

void
BM_ParallelForPersistentPool(benchmark::State &state)
{
    // Same empty-body region dispatched onto a resident pool (the
    // penelope_bench configuration): the per-region cost drops
    // from thread spin-up to queue round-trips.
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    ThreadPool pool(jobs);
    for (auto _ : state) {
        parallelFor(
            64, jobs,
            [](std::size_t i) { benchmark::DoNotOptimize(i); },
            &pool);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelForPersistentPool)
    ->Arg(4)
    ->UseRealTime();

void
BM_ResultCacheKeyDigest(benchmark::State &state)
{
    // One full per-trace key: domain + a dozen typed fields.
    for (auto _ : state) {
        const Hash128 key = CacheKeyBuilder("bench-key")
                                .u32(128)
                                .u32(32)
                                .u32(0)
                                .u32(64)
                                .b(false)
                                .u32(64)
                                .f64(0.92)
                                .u64(0x4e60f11e)
                                .b(true)
                                .u64(40'000)
                                .u64(0x123456789abcdef0ULL)
                                .u32(42)
                                .digest();
        benchmark::DoNotOptimize(key);
    }
}
BENCHMARK(BM_ResultCacheKeyDigest);

void
BM_ResultCacheLookup(benchmark::State &state)
{
    // In-memory hit path including payload decode: the entire
    // per-trace cost of a warm run (one SchedulerStress snapshot,
    // the largest cached type).
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig());
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const SchedReplayResult r = replay.run(gen, 10'000);
    ByteWriter writer;
    encodeResult(writer, sched.snapshotStress(r.cycles));

    ResultCache cache;
    const Hash128 key = CacheKeyBuilder("bench").u32(1).digest();
    cache.store(key, writer.view());

    for (auto _ : state) {
        std::string payload;
        cache.lookup(key, payload);
        ByteReader reader(payload);
        SchedulerStress value;
        decodeResult(reader, value);
        benchmark::DoNotOptimize(value);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResultCacheLookup);

void
BM_ResultCacheStore(benchmark::State &state)
{
    // Encode + store of the same snapshot under rotating keys
    // (memory-backed; disk append adds one buffered fwrite).
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig());
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const SchedReplayResult r = replay.run(gen, 10'000);
    const SchedulerStress stress = sched.snapshotStress(r.cycles);

    ResultCache cache;
    std::uint32_t serial = 0;
    for (auto _ : state) {
        ByteWriter writer;
        encodeResult(writer, stress);
        cache.store(
            CacheKeyBuilder("bench").u32(serial++).digest(),
            writer.view());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResultCacheStore);


// ---------------------------------------------- observability

/** One enabled counter increment: the full hot-path cost of an
 *  instrumentation site (relaxed enabled check + thread-local
 *  shard bump).  The CI overhead floor relies on this staying in
 *  the low single-digit ns. */
void
BM_ObsCounterInc(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    const obs::Counter c =
        obs::Registry::instance().counter("perf.counter_inc");
    for (auto _ : state)
        c.add();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc);

/** The same site runtime-off: one relaxed load and branch. */
void
BM_ObsCounterIncDisabled(benchmark::State &state)
{
    const obs::ScopedEnable enable(false);
    const obs::Counter c =
        obs::Registry::instance().counter("perf.counter_inc_off");
    for (auto _ : state)
        c.add();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncDisabled);

/** One histogram record: two bumps (count and sum). */
void
BM_ObsHistogramRecord(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    const obs::Histogram h =
        obs::Registry::instance().histogram("perf.hist_record",
                                            "us");
    std::uint64_t v = 1;
    for (auto _ : state) {
        h.record(v);
        v = v * 2862933555777941757ULL + 3037000493ULL;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

/** A full scrape: merge every live shard + retired totals into a
 *  sorted snapshot.  Cold-path (once per --metrics-dump run), so
 *  ms-scale is acceptable; track it anyway. */
void
BM_ObsScrape(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    obs::Registry::instance()
        .counter("perf.scrape_seed")
        .add();
    std::size_t n = 0;
    for (auto _ : state)
        n += obs::Registry::instance().scrape().metrics.size();
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScrape);

/** BM_NetlistEvaluateBatch with the registry enabled: the CI
 *  overhead ceiling asserts this within 3% of the metrics-off
 *  twin. */
void
BM_NetlistEvaluateBatchObsOn(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    evaluateBatchLoop<LadnerFischerAdder>(state);
}
BENCHMARK(BM_NetlistEvaluateBatchObsOn);

} // namespace

BENCHMARK_MAIN();
