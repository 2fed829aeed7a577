/**
 * @file
 * Tests for the parallel experiment engine: the thread pool, the
 * parallelFor primitive, mergeable statistics, the experiment
 * registry, and — the load-bearing property — that every experiment
 * produces bit-identical statistics for any worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/timing.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "core/engine.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/serialize.hh"
#include "obs/metrics.hh"
#include "scheduler/profile.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&counter] { ++counter; });
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([] { throw std::runtime_error("task failed"); });
    pool.submit([&counter] { ++counter; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(counter.load(), 1);
    // The pool stays usable after a failed task.
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, AtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    pool.wait();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, MemberParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    // The pool is reusable across parallel regions (this is the
    // persistent-pool property penelope_bench relies on).
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, MemberParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // Still usable afterwards.
    std::atomic<int> counter{0};
    pool.parallelFor(5, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 5);
}

TEST(ParallelFor, SharedPoolMatchesPerCallPool)
{
    ThreadPool pool(4);
    for (unsigned jobs : {2u, 8u}) {
        std::vector<std::atomic<int>> hits(500);
        parallelFor(
            hits.size(), jobs,
            [&](std::size_t i) { ++hits[i]; }, &pool);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
    }
    // jobs <= 1 stays a strictly serial inline loop even with a
    // pool attached.
    std::vector<std::size_t> order;
    parallelFor(
        5, 1, [&](std::size_t i) { order.push_back(i); }, &pool);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ----------------------------------------------------- parallelFor

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> hits(1000);
        parallelFor(hits.size(), jobs,
                    [&](std::size_t i) { ++hits[i]; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, MoreJobsThanItems)
{
    std::atomic<int> sum{0};
    parallelFor(3, 16, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelFor, EmptyRangeIsANoop)
{
    bool ran = false;
    parallelFor(0, 8, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(100, 4,
                    [](std::size_t i) {
                        if (i == 42)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(ParallelFor, SerialPathRunsInOrder)
{
    std::vector<std::size_t> order;
    parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------- Engine

TEST(Engine, MapPreservesItemOrder)
{
    const Engine engine(4);
    std::vector<unsigned> items(64);
    std::iota(items.begin(), items.end(), 0u);
    const auto squares = engine.map<unsigned>(
        items, [](unsigned item, std::size_t) {
            return item * item;
        });
    ASSERT_EQ(squares.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(squares[i], items[i] * items[i]);
}

TEST(Engine, MapVariantsCachedRunsOnlyMissedVariantsOncePerItem)
{
    const Engine engine(4);
    std::vector<unsigned> items(10);
    std::iota(items.begin(), items.end(), 0u);
    const std::vector<unsigned> variants = {1, 2, 3};
    const auto key = [](unsigned item, unsigned variant, std::size_t) {
        CacheKeyBuilder k("engine-variants-test");
        k.u32(item).u32(variant);
        return k.digest();
    };
    const auto result = [](unsigned item, unsigned variant) {
        IsvStats r;
        r.updatesApplied = item;
        r.updatesSkipped = variant;
        return r;
    };
    std::atomic<unsigned> calls{0};
    std::vector<std::vector<unsigned>> seen(items.size());
    const auto fn = [&](unsigned item, std::size_t slot,
                        const std::vector<unsigned> &missing) {
        ++calls;
        seen[slot] = missing;
        std::vector<IsvStats> out;
        for (const unsigned v : missing)
            out.push_back(result(item, v));
        return out;
    };

    // Warm variant 2 of the even items only.
    ResultCache cache;
    std::vector<unsigned> even;
    for (const unsigned item : items)
        if (item % 2 == 0)
            even.push_back(item);
    engine.mapVariantsCached<IsvStats>(even, std::vector<unsigned>{2},
                                       &cache, key, fn);
    ASSERT_EQ(cache.stats().stores, even.size());

    calls = 0;
    const auto out =
        engine.mapVariantsCached<IsvStats>(items, variants, &cache,
                                           key, fn);
    EXPECT_EQ(calls, items.size());
    EXPECT_EQ(cache.stats().hits, even.size());
    EXPECT_EQ(cache.stats().stores,
              even.size() + variants.size() * items.size() -
                  even.size());
    ASSERT_EQ(out.size(), variants.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
        const std::vector<unsigned> expected =
            k % 2 == 0 ? std::vector<unsigned>{1, 3} : variants;
        EXPECT_EQ(seen[k], expected) << "item " << k;
        for (std::size_t v = 0; v < variants.size(); ++v) {
            EXPECT_EQ(out[v][k].updatesApplied, items[k]);
            EXPECT_EQ(out[v][k].updatesSkipped, variants[v]);
        }
    }

    // Without a cache every variant misses: one call per item, all
    // variants at once.
    calls = 0;
    engine.mapVariantsCached<IsvStats>(items, variants, nullptr, key,
                                       fn);
    EXPECT_EQ(calls, items.size());
    EXPECT_EQ(seen[0], variants);
}

// ---------------------------------------------------------- merges

TEST(StatsMerge, MatchesSequentialAccumulation)
{
    Rng rng(7);
    std::vector<double> samples(500);
    for (double &s : samples)
        s = rng.nextGaussian();

    RunningStats whole;
    for (double s : samples)
        whole.add(s);

    RunningStats left;
    RunningStats right;
    for (std::size_t i = 0; i < samples.size(); ++i)
        (i < 200 ? left : right).add(samples[i]);
    left.merge(right);

    EXPECT_EQ(left.count(), whole.count());
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
}

TEST(StatsMerge, MergeIntoEmptyCopies)
{
    RunningStats a;
    RunningStats b;
    b.add(2.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(SchedulerStressMerge, AggregatesTimeWeighted)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 100};

    // Two per-trace snapshots merged...
    std::vector<SchedulerStress> shards;
    for (unsigned index : traces) {
        Scheduler sched{SchedulerConfig{}};
        SchedReplayConfig cfg;
        cfg.seed = mixSeed(cfg.seed, index);
        SchedulerReplay replay(sched, cfg);
        TraceGenerator gen = workload.generator(index);
        const SchedReplayResult r = replay.run(gen, 2'000);
        shards.push_back(sched.snapshotStress(r.cycles));
    }
    SchedulerStress merged = shards.front();
    merged.merge(shards.back());

    EXPECT_EQ(merged.cycles,
              shards.front().cycles + shards.back().cycles);
    // ...bracket the aggregate between the per-trace extremes.
    const double lo = std::min(shards.front().occupancy(),
                               shards.back().occupancy());
    const double hi = std::max(shards.front().occupancy(),
                               shards.back().occupancy());
    EXPECT_GE(merged.occupancy(), lo - 1e-12);
    EXPECT_LE(merged.occupancy(), hi + 1e-12);
    EXPECT_EQ(merged.biasVector().size(),
              fieldLayout().totalBits());
}

// ------------------------------------------------ jobs determinism

ExperimentOptions
tinyOptions(unsigned jobs)
{
    ExperimentOptions options;
    options.traceStride = 97; // ~6 of the 531 traces
    options.uopsPerTrace = 2'000;
    options.cacheUops = 2'000;
    options.adderOperandSamples = 200;
    options.profilingTraces = 20;
    options.jobs = jobs;
    return options;
}

TEST(JobsDeterminism, RegFileExperiment)
{
    const WorkloadSet workload;
    const auto serial =
        runRegFileExperiment(workload, false, tinyOptions(1));
    const auto parallel =
        runRegFileExperiment(workload, false, tinyOptions(8));

    EXPECT_EQ(serial.baselineBias, parallel.baselineBias);
    EXPECT_EQ(serial.isvBias, parallel.isvBias);
    EXPECT_EQ(serial.baselineWorst, parallel.baselineWorst);
    EXPECT_EQ(serial.isvWorst, parallel.isvWorst);
    EXPECT_EQ(serial.freeFraction, parallel.freeFraction);
    EXPECT_EQ(serial.isvStats.updatesApplied,
              parallel.isvStats.updatesApplied);
    EXPECT_EQ(serial.isvStats.updatesDiscarded,
              parallel.isvStats.updatesDiscarded);
    EXPECT_EQ(serial.isvStats.updatesSkipped,
              parallel.isvStats.updatesSkipped);
}

TEST(JobsDeterminism, SchedulerExperiment)
{
    const WorkloadSet workload;
    const auto serial =
        runSchedulerExperiment(workload, tinyOptions(1));
    const auto parallel =
        runSchedulerExperiment(workload, tinyOptions(8));

    EXPECT_EQ(serial.baselineBias, parallel.baselineBias);
    EXPECT_EQ(serial.protectedBias, parallel.protectedBias);
    EXPECT_EQ(serial.baselineWorstFig8,
              parallel.baselineWorstFig8);
    EXPECT_EQ(serial.protectedWorstFig8,
              parallel.protectedWorstFig8);
    EXPECT_EQ(serial.occupancy, parallel.occupancy);
    EXPECT_EQ(serial.guardband, parallel.guardband);
}

TEST(JobsDeterminism, PerfLossAndCombinedCpi)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = workload.strided(97);
    for (unsigned jobs : {2u, 8u}) {
        const PerfLossStats serial = measurePerfLoss(
            workload, traces, 2'000, CacheConfig(),
            CacheConfig::tlb(128, 8), MechanismKind::LineFixed50,
            true, MemTimingParams(), 0.05, 1);
        const PerfLossStats parallel = measurePerfLoss(
            workload, traces, 2'000, CacheConfig(),
            CacheConfig::tlb(128, 8), MechanismKind::LineFixed50,
            true, MemTimingParams(), 0.05, jobs);
        EXPECT_EQ(serial.meanLoss, parallel.meanLoss);
        EXPECT_EQ(serial.maxLoss, parallel.maxLoss);
        EXPECT_EQ(serial.meanInvertRatio,
                  parallel.meanInvertRatio);

        EXPECT_EQ(
            combinedNormalizedCpi(
                workload, traces, 2'000, CacheConfig(),
                CacheConfig::tlb(128, 8),
                MechanismKind::LineDynamic60, MemTimingParams(),
                0.05, 1),
            combinedNormalizedCpi(
                workload, traces, 2'000, CacheConfig(),
                CacheConfig::tlb(128, 8),
                MechanismKind::LineDynamic60, MemTimingParams(),
                0.05, jobs));
    }
}

// --------------------------------------- trace-major cache driver

/** Cache cells with pairwise distinct result-cache keys: three
 *  baseline geometry pairs, mechanisms on DL0, DTLB and both. */
std::vector<MemCell>
distinctMemCells()
{
    const CacheConfig dl0;
    const CacheConfig dtlb = CacheConfig::tlb(128, 8);
    CacheConfig small_dl0;
    small_dl0.sizeBytes = 8 * 1024;
    small_dl0.ways = 4;
    return {
        {dl0, dtlb, MechanismKind::LineFixed50, MechanismKind::None},
        {dl0, dtlb, MechanismKind::SetFixed50, MechanismKind::None},
        {small_dl0, dtlb, MechanismKind::LineDynamic60,
         MechanismKind::None},
        {dl0, CacheConfig::tlb(32, 8), MechanismKind::None,
         MechanismKind::WayFixed50},
        {dl0, dtlb, MechanismKind::LineFixed50,
         MechanismKind::LineFixed50},
    };
}

constexpr std::size_t kCellUops = 4'000;
constexpr double kCellTimeScale = 0.01;

std::vector<std::vector<MemLossSample>>
runCells(const std::vector<unsigned> &traces,
         const std::vector<MemCell> &cells, unsigned jobs = 1,
         ResultCache *cache = nullptr)
{
    const WorkloadSet workload;
    return simulateMemCells(workload, traces, kCellUops, cells,
                            MemTimingParams(), kCellTimeScale, jobs,
                            nullptr, cache);
}

void
expectSameSamples(const std::vector<MemLossSample> &a,
                  const std::vector<MemLossSample> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        EXPECT_EQ(a[t].loss, b[t].loss);
        EXPECT_EQ(a[t].normalizedCycles, b[t].normalizedCycles);
        EXPECT_EQ(a[t].dl0InvertRatio, b[t].dl0InvertRatio);
        EXPECT_EQ(a[t].dtlbInvertRatio, b[t].dtlbInvertRatio);
    }
}

/** Cache simulations so far: two-cache runs plus one-cache
 *  replays, less the replays a fallback repeated as two-cache runs. */
std::uint64_t
memsimRuns()
{
    const obs::Snapshot snap = obs::Registry::instance().scrape();
    auto count = [&](const char *name) -> std::uint64_t {
        const obs::SnapshotMetric *m = snap.find(name);
        return m ? m->scalar() : 0;
    };
    return count("memsim.runs") + count("memsim.side_runs") -
        count("memsim.fallbacks");
}

TEST(MemCells, MultiCellMatchesOneCellCalls)
{
    const std::vector<unsigned> traces = {0, 97, 311};
    std::vector<MemCell> cells = distinctMemCells();
    // Same geometry under another name: must share the baseline.
    MemCell renamed = cells[0];
    renamed.dl0.name = "renamed";
    // Differs only in the write-port probability: must not.
    MemCell other_port = cells[0];
    other_port.dl0.writePortFreeProb = 0.5;
    cells.push_back(renamed);
    cells.push_back(other_port);

    const obs::ScopedEnable enable;
    const std::uint64_t runs_before = memsimRuns();
    const auto multi = runCells(traces, cells);
    const std::uint64_t runs = memsimRuns() - runs_before;

    ASSERT_EQ(multi.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        SCOPED_TRACE("cell " + std::to_string(c));
        expectSameSamples(multi[c], runCells(traces, {cells[c]})[0]);
    }
    expectSameSamples(multi[5], multi[0]);

    // Baselines: (DL0, DTLB128) for cells 0, 1, 4, 5; (DL0 8KB
    // 4-way, DTLB128); (DL0, DTLB32); (DL0 port 0.5, DTLB128).
    EXPECT_EQ(runs, traces.size() * (cells.size() + 4));
}

TEST(MemCells, PartialWarmCacheStoresOnlyMissingCells)
{
    const std::vector<unsigned> traces = {0, 97, 311};
    const std::vector<MemCell> cells = distinctMemCells();
    const auto uncached = runCells(traces, cells);

    ResultCache cold;
    const auto cold_run = runCells(traces, cells, 1, &cold);
    EXPECT_EQ(cold.stats().hits, 0u);
    EXPECT_EQ(cold.stats().stores, cells.size() * traces.size());

    ResultCache warm;
    runCells(traces, {cells[2]}, 1, &warm);
    const ResultCache::Stats before = warm.stats();
    const auto warm_run = runCells(traces, cells, 1, &warm);
    const ResultCache::Stats after = warm.stats();
    EXPECT_EQ(after.hits - before.hits, traces.size());
    EXPECT_EQ(after.stores - before.stores,
              (cells.size() - 1) * traces.size());

    for (std::size_t c = 0; c < cells.size(); ++c) {
        SCOPED_TRACE("cell " + std::to_string(c));
        expectSameSamples(cold_run[c], uncached[c]);
        expectSameSamples(warm_run[c], uncached[c]);
    }
}

TEST(MemCells, JobsDoNotChangeSamples)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = workload.strided(97);
    const std::vector<MemCell> cells = distinctMemCells();
    const auto serial = runCells(traces, cells, 1);
    const auto parallel = runCells(traces, cells, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t c = 0; c < cells.size(); ++c)
        expectSameSamples(serial[c], parallel[c]);
}

// ------------------------------------------------ lockstep arms

std::string
stressBytes(const SchedulerStress &stress)
{
    ByteWriter w;
    encodeResult(w, stress);
    return w.data();
}

void
expectSameSchedulerResult(const SchedulerExperimentResult &a,
                          const SchedulerExperimentResult &b)
{
    EXPECT_EQ(a.baselineBias, b.baselineBias);
    EXPECT_EQ(a.protectedBias, b.protectedBias);
    EXPECT_EQ(a.baselineWorstFig8, b.baselineWorstFig8);
    EXPECT_EQ(a.protectedWorstFig8, b.protectedWorstFig8);
    EXPECT_EQ(a.occupancy, b.occupancy);
    EXPECT_EQ(a.guardband, b.guardband);
}

TEST(LockstepCache, SchedulerBaselineWarmCacheStoresOnlyProtectedArm)
{
    const WorkloadSet workload;
    const auto cold = runSchedulerExperiment(workload, tinyOptions(1));

    ExperimentOptions options = tinyOptions(1);
    ResultCache cache;
    options.cache = &cache;
    const auto profile_subset =
        schedulerProfilingSubset(workload, options);
    const std::size_t eval =
        schedulerEvaluationTraces(workload, options).size();
    ASSERT_GT(eval, 0u);

    // Warm with unprotected keys only: the profiling pass and the
    // evaluation set's baseline arm.
    profileScheduler(workload, profile_subset,
                     options.uopsPerTrace / 2, SchedulerConfig(),
                     SchedReplayConfig(), 1, nullptr, &cache);
    const std::vector<std::vector<BitDecision>> unprotected(1);
    runSchedulerArms(workload, unprotected, options);
    const ResultCache::Stats before = cache.stats();
    EXPECT_EQ(before.stores, profile_subset.size() + eval);

    // Every evaluation trace hits its baseline and replays (and
    // stores) only its protected arm.
    const auto warm = runSchedulerExperiment(workload, options);
    const ResultCache::Stats after = cache.stats();
    EXPECT_EQ(after.hits - before.hits, profile_subset.size() + eval);
    EXPECT_EQ(after.misses - before.misses, eval);
    EXPECT_EQ(after.stores - before.stores, eval);
    expectSameSchedulerResult(warm, cold);
}

TEST(LockstepCache, RegFileBaselineWarmCacheStoresOnlyIsvArm)
{
    const WorkloadSet workload;
    const auto cold =
        runRegFileExperiment(workload, false, tinyOptions(1));

    ExperimentOptions options = tinyOptions(1);
    ResultCache cache;
    options.cache = &cache;
    const std::size_t eval = evaluationTraces(workload, options).size();
    runRegFileArms(workload, false, {false}, options);
    const ResultCache::Stats before = cache.stats();
    EXPECT_EQ(before.stores, eval);

    const auto warm = runRegFileExperiment(workload, false, options);
    const ResultCache::Stats after = cache.stats();
    EXPECT_EQ(after.hits - before.hits, eval);
    EXPECT_EQ(after.stores - before.stores, eval);
    EXPECT_EQ(warm.baselineBias, cold.baselineBias);
    EXPECT_EQ(warm.isvBias, cold.isvBias);
    EXPECT_EQ(warm.freeFraction, cold.freeFraction);
    EXPECT_EQ(warm.isvStats.updatesApplied,
              cold.isvStats.updatesApplied);
}

TEST(LockstepCache, JobsDoNotChangeArms)
{
    const WorkloadSet workload;
    // Arms in reverse order: arm order is data, not a convention.
    const auto rf = [&](unsigned jobs) {
        return runRegFileArms(workload, true, {true, false},
                              tinyOptions(jobs));
    };
    const auto rf1 = rf(1);
    const auto rf4 = rf(4);
    ASSERT_EQ(rf1.size(), 2u);
    ASSERT_EQ(rf4.size(), 2u);
    for (std::size_t a = 0; a < 2; ++a) {
        EXPECT_EQ(rf1[a].bias.biasVector(), rf4[a].bias.biasVector());
        EXPECT_EQ(rf1[a].bias.totalTime(), rf4[a].bias.totalTime());
        EXPECT_EQ(rf1[a].freeFraction, rf4[a].freeFraction);
        EXPECT_EQ(rf1[a].isv.updatesApplied, rf4[a].isv.updatesApplied);
    }
    EXPECT_GT(rf1[0].isv.updatesApplied, 0u);
    EXPECT_EQ(rf1[1].isv.updatesApplied, 0u);

    const auto decisions = decideProtection(
        profileScheduler(workload, {0, 200}, 2'000).bits);
    const std::vector<std::vector<BitDecision>> arms = {decisions, {}};
    const auto sched1 = runSchedulerArms(workload, arms, tinyOptions(1));
    const auto sched4 = runSchedulerArms(workload, arms, tinyOptions(4));
    ASSERT_EQ(sched1.size(), 2u);
    ASSERT_EQ(sched4.size(), 2u);
    for (std::size_t a = 0; a < 2; ++a)
        EXPECT_EQ(stressBytes(sched1[a]), stressBytes(sched4[a]));

    // The attack experiment's lockstep arm pairs, end to end.
    registerBuiltinExperiments();
    const Experiment *attack =
        ExperimentRegistry::instance().find("attack");
    ASSERT_NE(attack, nullptr);
    std::ostringstream out1;
    std::ostringstream out4;
    attack->run({workload, tinyOptions(1), out1});
    attack->run({workload, tinyOptions(4), out4});
    EXPECT_EQ(out1.str(), out4.str());
}

TEST(JobsDeterminism, PersistentPoolMatchesPerCallPools)
{
    // The persistent worker pool must not change any statistic:
    // serial, per-call-pool parallel, and shared-pool parallel runs
    // of the same experiments are bit-identical.  This covers the
    // sliced BitBiasTracker and the packed-slot scheduler kernels
    // under merge.
    const WorkloadSet workload;
    ThreadPool pool(4);
    ExperimentOptions pooled = tinyOptions(4);
    pooled.pool = &pool;

    const auto rf_serial =
        runRegFileExperiment(workload, false, tinyOptions(1));
    const auto rf_pooled =
        runRegFileExperiment(workload, false, pooled);
    EXPECT_EQ(rf_serial.baselineBias, rf_pooled.baselineBias);
    EXPECT_EQ(rf_serial.isvBias, rf_pooled.isvBias);
    EXPECT_EQ(rf_serial.isvStats.updatesApplied,
              rf_pooled.isvStats.updatesApplied);

    const auto sched_serial =
        runSchedulerExperiment(workload, tinyOptions(1));
    const auto sched_pooled =
        runSchedulerExperiment(workload, pooled);
    EXPECT_EQ(sched_serial.baselineBias, sched_pooled.baselineBias);
    EXPECT_EQ(sched_serial.protectedBias,
              sched_pooled.protectedBias);
    EXPECT_EQ(sched_serial.occupancy, sched_pooled.occupancy);

    const std::vector<unsigned> traces = workload.strided(97);
    const PerfLossStats loss_serial = measurePerfLoss(
        workload, traces, 2'000, CacheConfig(),
        CacheConfig::tlb(128, 8), MechanismKind::LineFixed50, true,
        MemTimingParams(), 0.05, 1);
    const PerfLossStats loss_pooled = measurePerfLoss(
        workload, traces, 2'000, CacheConfig(),
        CacheConfig::tlb(128, 8), MechanismKind::LineFixed50, true,
        MemTimingParams(), 0.05, 4, &pool);
    EXPECT_EQ(loss_serial.meanLoss, loss_pooled.meanLoss);
    EXPECT_EQ(loss_serial.meanInvertRatio,
              loss_pooled.meanInvertRatio);
}

TEST(JobsDeterminism, SchedulerProfile)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 50, 200, 400};
    const auto serial = profileScheduler(
        workload, traces, 1'000, SchedulerConfig(),
        SchedReplayConfig(), 1);
    const auto parallel = profileScheduler(
        workload, traces, 1'000, SchedulerConfig(),
        SchedReplayConfig(), 4);
    ASSERT_EQ(serial.bits.size(), parallel.bits.size());
    for (std::size_t b = 0; b < serial.bits.size(); ++b) {
        EXPECT_EQ(serial.bits[b].occupancy,
                  parallel.bits[b].occupancy);
        EXPECT_EQ(serial.bits[b].bias0Busy,
                  parallel.bits[b].bias0Busy);
    }
    EXPECT_EQ(serial.slotOccupancy, parallel.slotOccupancy);
}

TEST(JobsDeterminism, PipelineSurvey)
{
    const WorkloadSet workload;
    const auto serial =
        runPipelineSurvey(workload, tinyOptions(1));
    const auto parallel =
        runPipelineSurvey(workload, tinyOptions(4));
    EXPECT_EQ(serial.cpi, parallel.cpi);
    EXPECT_EQ(serial.schedOccupancy, parallel.schedOccupancy);
    for (unsigned a = 0; a < 4; ++a)
        EXPECT_EQ(serial.adderUtil[a], parallel.adderUtil[a]);
    for (unsigned m = 0; m < 3; ++m)
        EXPECT_EQ(serial.mruHitFraction[m],
                  parallel.mruHitFraction[m]);
}

// -------------------------------------------------------- registry

TEST(Registry, BuiltinCatalogRegistersOnce)
{
    registerBuiltinExperiments();
    registerBuiltinExperiments(); // idempotent
    const auto &experiments =
        ExperimentRegistry::instance().experiments();
    EXPECT_EQ(experiments.size(), 13u);
    EXPECT_NE(ExperimentRegistry::instance().find("fig5"),
              nullptr);
    EXPECT_NE(ExperimentRegistry::instance().find("table4"),
              nullptr);
    EXPECT_NE(ExperimentRegistry::instance().find("attack"),
              nullptr);
    EXPECT_NE(ExperimentRegistry::instance().find("attack-search"),
              nullptr);
    EXPECT_EQ(ExperimentRegistry::instance().find("nope"),
              nullptr);
}

TEST(Registry, DuplicateNameThrows)
{
    registerBuiltinExperiments();
    EXPECT_THROW(ExperimentRegistry::instance().add(
                     {"fig5", "", "", nullptr}),
                 std::logic_error);
}

TEST(Registry, RunsAnExperimentThroughTheContext)
{
    registerBuiltinExperiments();
    const Experiment *fig3 =
        ExperimentRegistry::instance().find("fig3");
    ASSERT_NE(fig3, nullptr);
    const WorkloadSet workload;
    std::ostringstream out;
    fig3->run({workload, tinyOptions(2), out});
    EXPECT_NE(out.str().find("technique decision surface"),
              std::string::npos);
    EXPECT_NE(out.str().find("ALL1"), std::string::npos);
}

} // namespace
} // namespace penelope
