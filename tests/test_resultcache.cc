/**
 * @file
 * Tests for the content-addressed result cache: key construction,
 * payload codecs (round-trip and corruption rejection), the
 * disk-backed store's treat-anything-broken-as-a-miss contract,
 * and the end-to-end properties the experiment engine depends on
 * -- cold == warm == uncached statistics at any worker count, no
 * cross-options poisoning, and shard/merge reassembly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "adder/adder.hh"
#include "cache/timing.hh"
#include "common/rng.hh"
#include "core/engine.hh"
#include "core/experiments.hh"
#include "core/resultcache.hh"
#include "core/serialize.hh"
#include "core/surrogate_sweep.hh"
#include "scheduler/driver.hh"
#include "scheduler/profile.hh"
#include "trace/attack.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

/** Fresh temp directory per test. */
std::string
tempDir(const char *name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        (std::string("penelope_rc_") + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Small, fast experiment options (cache/jobs default off). */
ExperimentOptions
fastOptions()
{
    ExperimentOptions options;
    options.traceStride = 96;
    options.uopsPerTrace = 2'000;
    options.cacheUops = 2'000;
    options.adderOperandSamples = 400;
    return options;
}

// --------------------------------------------------- key building

TEST(CacheKey, FieldsAndOrderAndDomainAllMatter)
{
    const Hash128 base =
        CacheKeyBuilder("d").u32(1).u64(2).digest();
    EXPECT_EQ(base, CacheKeyBuilder("d").u32(1).u64(2).digest());
    EXPECT_NE(base, CacheKeyBuilder("e").u32(1).u64(2).digest());
    EXPECT_NE(base, CacheKeyBuilder("d").u32(2).u64(2).digest());
    EXPECT_NE(base, CacheKeyBuilder("d").u32(1).u64(3).digest());
    EXPECT_NE(base, CacheKeyBuilder("d").u64(2).u32(1).digest());
    // Same bit pattern through a different typed appender differs.
    EXPECT_NE(base, CacheKeyBuilder("d").u64(1).u64(2).digest());
}

TEST(CacheKey, StringFramingPreventsConcatenationCollisions)
{
    EXPECT_NE(CacheKeyBuilder("d").str("ab").str("c").digest(),
              CacheKeyBuilder("d").str("a").str("bc").digest());
    EXPECT_NE(CacheKeyBuilder("d").str("").digest(),
              CacheKeyBuilder("d").digest());
}

TEST(CacheKey, SchedulerReplayKeyCoversDecisions)
{
    std::vector<BitDecision> a(4);
    std::vector<BitDecision> b(4);
    b[2].technique = Technique::All1K;
    b[2].k = 0.3;
    const auto key = [&](const std::vector<BitDecision> &d) {
        return schedulerReplayKey(SchedulerConfig(),
                                  SchedReplayConfig(), 1000, d,
                                  0x1234, 7);
    };
    EXPECT_EQ(key(a), key(a));
    EXPECT_NE(key(a), key(b));
    EXPECT_NE(key(a), key(std::vector<BitDecision>()));
}

TEST(CacheKey, KeyBytesPinned)
{
    // A key that changes without a kResultCacheSalt bump orphans
    // every stored entry, so the bytes the shared key writers mix
    // are pinned.  The scheduler key still mixes the retired
    // port-free probability 0.77.
    std::vector<BitDecision> decisions(4);
    decisions[2].technique = Technique::All1K;
    decisions[2].k = 0.3;
    const Hash128 sched = schedulerReplayKey(
        SchedulerConfig(), SchedReplayConfig(), 1000, decisions,
        0x1234, 7);
    EXPECT_EQ(sched.lo, 0x6a6ee37290c4e0afULL);
    EXPECT_EQ(sched.hi, 0xd1c9818648074abaULL);

    AttackConfig attack;
    attack.dataValue = 0xdeadbeef;
    attack.hotRegs = 4;
    const Hash128 candidate =
        attackCandidateKey(LadnerFischerAdder(32), attack, 2048);
    EXPECT_EQ(candidate.lo, 0x16f1977f32a325c2ULL);
    EXPECT_EQ(candidate.hi, 0x6b6a03e86f3b5f5aULL);
}

// ------------------------------------------------- codec round-trip

template <class T>
std::string
encodeToString(const T &value)
{
    ByteWriter w;
    encodeResult(w, value);
    return w.data();
}

template <class T>
void
expectRoundTrip(const T &value, T &out)
{
    const std::string bytes = encodeToString(value);
    ByteReader r(bytes);
    ASSERT_TRUE(decodeResult(r, out));
    EXPECT_TRUE(r.atEnd());
}

TEST(ResultCodec, IsvStatsRoundTrip)
{
    IsvStats stats;
    stats.updatesApplied = 0x1122334455667788ULL;
    stats.updatesDiscarded = 42;
    stats.updatesSkipped = 7;
    IsvStats out;
    expectRoundTrip(stats, out);
    EXPECT_EQ(out.updatesApplied, stats.updatesApplied);
    EXPECT_EQ(out.updatesDiscarded, stats.updatesDiscarded);
    EXPECT_EQ(out.updatesSkipped, stats.updatesSkipped);
}

TEST(ResultCodec, BitBiasTrackerRoundTripAcrossWidths)
{
    Rng rng(0xc0dec);
    for (unsigned width : {1u, 7u, 32u, 64u, 65u, 80u, 128u,
                           144u, 192u}) {
        // A BitWord holds at most 128 bits: the wider trackers (the
        // scheduler's sliced views) are built from per-bit times.
        BitBiasTracker tracker(width);
        if (width <= 128) {
            for (int i = 0; i < 200; ++i) {
                BitWord value(width);
                for (unsigned bit = 0; bit < width; ++bit) {
                    if (rng.nextBool(0.3))
                        value.setBit(bit, true);
                }
                tracker.observe(value, 1 + rng.nextInt(1000));
            }
        } else {
            const std::uint64_t total = 100'000;
            std::vector<std::uint64_t> zeros(width);
            for (std::uint64_t &z : zeros)
                z = rng.nextInt(total + 1);
            tracker =
                BitBiasTracker::fromTimes(width, zeros.data(), total);
        }
        BitBiasTracker out(1);
        expectRoundTrip(tracker, out);
        ASSERT_EQ(out.width(), tracker.width());
        EXPECT_EQ(out.totalTime(), tracker.totalTime());
        for (unsigned bit = 0; bit < width; ++bit) {
            EXPECT_EQ(out.zeroTime(bit), tracker.zeroTime(bit));
            EXPECT_EQ(out.zeroProbability(bit),
                      tracker.zeroProbability(bit));
        }
    }
}

TEST(ResultCodec, SchedulerStressRoundTripFromRealReplay)
{
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig());
    AttackTraceGenerator gen{AttackConfig{}};
    const SchedReplayResult r = replay.run(gen, 3'000);
    const SchedulerStress stress = sched.snapshotStress(r.cycles);

    SchedulerStress out;
    expectRoundTrip(stress, out);
    EXPECT_EQ(out.numEntries, stress.numEntries);
    EXPECT_EQ(out.cycles, stress.cycles);
    EXPECT_EQ(out.busyIntegral, stress.busyIntegral);
    EXPECT_EQ(out.fieldUseTime, stress.fieldUseTime);
    EXPECT_EQ(out.biasVector(), stress.biasVector());
    EXPECT_EQ(out.occupancy(), stress.occupancy());
    EXPECT_EQ(out.worstFigure8Bias(), stress.worstFigure8Bias());
}

TEST(ResultCodec, PipelineStatsRoundTrip)
{
    PipelineStats stats;
    stats.cycles = 123456;
    stats.uops = 7890;
    stats.cpi = 1.2345;
    for (unsigned a = 0; a < 4; ++a)
        stats.adderUtilization[a] = 0.1 * (a + 1);
    stats.intRfOccupancy = 0.46;
    stats.fpRfOccupancy = 0.31;
    stats.schedOccupancy = 0.63;
    stats.intRfPortFree = 0.92;
    stats.fpRfPortFree = 0.86;
    stats.schedPortFree = 0.77;
    stats.dl0Hits = 1111;
    stats.dl0Misses = 22;
    stats.dtlbMisses = 3;
    stats.mruHitFraction[0] = 0.9;
    stats.mruHitFraction[1] = 0.07;
    stats.mruHitFraction[2] = 0.03;

    PipelineStats out;
    expectRoundTrip(stats, out);
    EXPECT_EQ(out.cycles, stats.cycles);
    EXPECT_EQ(out.uops, stats.uops);
    EXPECT_EQ(out.cpi, stats.cpi);
    for (unsigned a = 0; a < 4; ++a)
        EXPECT_EQ(out.adderUtilization[a],
                  stats.adderUtilization[a]);
    EXPECT_EQ(out.schedOccupancy, stats.schedOccupancy);
    EXPECT_EQ(out.dl0Hits, stats.dl0Hits);
    EXPECT_EQ(out.mruHitFraction[2], stats.mruHitFraction[2]);
}

TEST(ResultCodec, MemLossSampleRoundTrip)
{
    MemLossSample sample;
    sample.loss = 0.0123;
    sample.normalizedCycles = 1.0123;
    sample.dl0InvertRatio = 0.5;
    sample.dtlbInvertRatio = 0.25;
    MemLossSample out;
    expectRoundTrip(sample, out);
    EXPECT_EQ(out.loss, sample.loss);
    EXPECT_EQ(out.normalizedCycles, sample.normalizedCycles);
    EXPECT_EQ(out.dl0InvertRatio, sample.dl0InvertRatio);
    EXPECT_EQ(out.dtlbInvertRatio, sample.dtlbInvertRatio);
}

TEST(ResultCodec, OperandVectorRoundTrip)
{
    std::vector<OperandSample> samples;
    Rng rng(0x0b5);
    for (int i = 0; i < 500; ++i) {
        samples.push_back(
            {static_cast<std::uint32_t>(rng()),
             static_cast<std::uint32_t>(rng()),
             rng.nextBool(0.1)});
    }
    std::vector<OperandSample> out;
    expectRoundTrip(samples, out);
    ASSERT_EQ(out.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(out[i].a, samples[i].a);
        EXPECT_EQ(out[i].b, samples[i].b);
        EXPECT_EQ(out[i].cin, samples[i].cin);
    }
}

// -------------------------------------------- corrupt payloads miss

TEST(ResultCodec, RejectsTruncationWrongTagAndBadInvariants)
{
    IsvStats stats;
    stats.updatesApplied = 5;
    const std::string bytes = encodeToString(stats);

    // Truncation at every prefix length fails, never crashes.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        ByteReader r(std::string_view(bytes).substr(0, len));
        IsvStats out;
        EXPECT_FALSE(decodeResult(r, out) && r.atEnd());
    }

    // A different type's payload is rejected by tag.
    {
        ByteReader r(bytes);
        MemLossSample out;
        EXPECT_FALSE(decodeResult(r, out));
    }

    // Trailing garbage is not silently accepted.
    {
        const std::string extended = bytes + "x";
        ByteReader r(extended);
        IsvStats out;
        EXPECT_TRUE(decodeResult(r, out));
        EXPECT_FALSE(r.atEnd());
    }

    // A tracker whose zero-time exceeds its total is invalid.
    {
        BitBiasTracker tracker(4);
        tracker.observe(Word(0), 10);
        std::string blob = encodeToString(tracker);
        // Overwrite total-time (bytes 6..13 after tag, version,
        // width) with a value below the zero-times.
        for (int i = 0; i < 8; ++i)
            blob[6 + i] = 0;
        ByteReader r(blob);
        BitBiasTracker out(1);
        EXPECT_FALSE(decodeResult(r, out));
    }
}

// ------------------------------------------------ ResultCache store

TEST(ResultCache, MemoryStoreAndLookup)
{
    ResultCache cache;
    const Hash128 key = CacheKeyBuilder("t").u32(1).digest();
    std::string payload;
    EXPECT_FALSE(cache.lookup(key, payload));
    cache.store(key, "hello");
    ASSERT_TRUE(cache.lookup(key, payload));
    EXPECT_EQ(payload, "hello");
    EXPECT_EQ(cache.size(), 1u);
    const ResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
}

TEST(ResultCache, DiskStorePersistsAcrossInstances)
{
    const std::string dir = tempDir("persist");
    const Hash128 key = CacheKeyBuilder("t").u32(2).digest();
    {
        ResultCache cache(dir);
        cache.store(key, "payload-bytes");
    }
    ResultCache cache(dir);
    std::string payload;
    ASSERT_TRUE(cache.lookup(key, payload));
    EXPECT_EQ(payload, "payload-bytes");
}

TEST(ResultCache, ExportImportMovesEntries)
{
    const std::string file =
        tempDir("xfer") + "/entries.bin";
    ResultCache source;
    std::vector<Hash128> keys;
    for (std::uint32_t i = 0; i < 100; ++i) {
        const Hash128 key =
            CacheKeyBuilder("t").u32(i).digest();
        keys.push_back(key);
        source.store(key, "v" + std::to_string(i));
    }
    ASSERT_TRUE(source.exportTo(file));

    ResultCache dest;
    ASSERT_TRUE(dest.importFrom(file));
    EXPECT_EQ(dest.size(), 100u);
    std::string payload;
    ASSERT_TRUE(dest.lookup(keys[42], payload));
    EXPECT_EQ(payload, "v42");

    EXPECT_FALSE(dest.importFrom(file + ".does-not-exist"));
}

TEST(ResultCache, ImportDedupsAndRejectsCorruptOrForeignShardFiles)
{
    const std::string dir = tempDir("import_damage");
    const std::string file = dir + "/entries.bin";
    const Hash128 k1{0x1111, 0x2222};
    const Hash128 k2{0x3333, 0x4444};
    {
        ResultCache source;
        source.store(k1, "first payload");
        source.store(k2, "second payload");
        ASSERT_TRUE(source.exportTo(file));
    }

    // Importing the same shard file twice deduplicates.
    ResultCache twice;
    ASSERT_TRUE(twice.importFrom(file));
    ASSERT_TRUE(twice.importFrom(file));
    EXPECT_EQ(twice.size(), 2u);

    // A flipped byte drops a record, never yields a wrong payload.
    std::string bytes;
    {
        std::ifstream in(file, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 2u);
    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x10;
    const std::string corrupt_file = dir + "/corrupt.bin";
    std::ofstream(corrupt_file, std::ios::binary) << corrupt;
    ResultCache damaged;
    ASSERT_TRUE(damaged.importFrom(corrupt_file));
    EXPECT_GT(damaged.stats().badRecords, 0u);
    std::string p1;
    std::string p2;
    const bool has1 = damaged.lookup(k1, p1);
    const bool has2 = damaged.lookup(k2, p2);
    if (has1) {
        EXPECT_EQ(p1, "first payload");
    }
    if (has2) {
        EXPECT_EQ(p2, "second payload");
    }
    EXPECT_LT(static_cast<int>(has1) + static_cast<int>(has2), 2);

    // A foreign header is rejected outright.
    const std::string foreign_file = dir + "/foreign.bin";
    std::ofstream(foreign_file, std::ios::binary)
        << "not a shard stream";
    ResultCache foreign;
    EXPECT_FALSE(foreign.importFrom(foreign_file));
    EXPECT_EQ(foreign.size(), 0u);
}

TEST(ResultCache, SaltUnchangedByBatchedNetlistEngine)
{
    // The PR that introduced the word-parallel netlist engine kept
    // every statistic bit-identical to the scalar form, so the
    // cache salt did NOT bump: stores written before it stay
    // valid.  If a later change alters simulator behaviour, bump
    // the salt and update this pin in the same commit.
    EXPECT_EQ(kResultCacheSalt, "penelope-result-cache-v1");
}

TEST(ResultCache, CompactDropsUntouchedEntries)
{
    const std::string dir = tempDir("gc");
    std::vector<Hash128> stale_keys;
    std::vector<Hash128> live_keys;
    for (std::uint32_t i = 0; i < 60; ++i)
        stale_keys.push_back(
            CacheKeyBuilder("old-salt").u32(i).digest());
    for (std::uint32_t i = 0; i < 40; ++i)
        live_keys.push_back(
            CacheKeyBuilder("live").u32(i).digest());

    // Populate a store with both generations.
    {
        ResultCache cache(dir);
        for (std::uint32_t i = 0; i < 60; ++i)
            cache.store(stale_keys[i], "stale-" +
                            std::to_string(i));
        for (std::uint32_t i = 0; i < 40; ++i)
            cache.store(live_keys[i], "live-" +
                            std::to_string(i));
    }

    // A later process looks up only the live generation (the warm
    // run of the current configuration), then compacts.
    {
        ResultCache cache(dir);
        std::string payload;
        for (const Hash128 &key : live_keys)
            ASSERT_TRUE(cache.lookup(key, payload));
        EXPECT_EQ(cache.compact(), 60u);
        EXPECT_EQ(cache.size(), 40u);
    }

    // The GC'd store still serves every live entry bit-identically
    // and the stale generation is gone from disk.
    ResultCache reopened(dir);
    std::string payload;
    for (std::uint32_t i = 0; i < 40; ++i) {
        ASSERT_TRUE(reopened.lookup(live_keys[i], payload));
        EXPECT_EQ(payload, "live-" + std::to_string(i));
    }
    for (const Hash128 &key : stale_keys)
        EXPECT_FALSE(reopened.lookup(key, payload));

    // Compacted stripes accept fresh appends.
    const Hash128 fresh = CacheKeyBuilder("fresh").u32(7).digest();
    reopened.store(fresh, "fresh-payload");
    ResultCache again(dir);
    ASSERT_TRUE(again.lookup(fresh, payload));
    EXPECT_EQ(payload, "fresh-payload");
}

TEST(ResultCache, CompactKeepsFreshStoresAndMemoryOnlyWorks)
{
    // Entries stored in this process are live by definition.
    ResultCache cache;
    const Hash128 stored = CacheKeyBuilder("s").u32(1).digest();
    cache.store(stored, "x");
    EXPECT_EQ(cache.compact(), 0u);
    std::string payload;
    EXPECT_TRUE(cache.lookup(stored, payload));

    // Imported-but-never-consulted entries are collectable.
    const std::string file = tempDir("gc_mem") + "/entries.bin";
    ASSERT_TRUE(cache.exportTo(file));
    ResultCache dest;
    ASSERT_TRUE(dest.importFrom(file));
    EXPECT_EQ(dest.size(), 1u);
    EXPECT_EQ(dest.compact(), 1u);
    EXPECT_EQ(dest.size(), 0u);
}

TEST(ResultCache, CorruptTruncatedAndForeignFilesAreMisses)
{
    const std::string dir = tempDir("corrupt");
    std::vector<Hash128> keys;
    {
        ResultCache cache(dir);
        for (std::uint32_t i = 0; i < 64; ++i) {
            keys.push_back(
                CacheKeyBuilder("t").u32(i).digest());
            cache.store(keys.back(),
                        std::string(50, 'a' + (i % 26)));
        }
    }

    // Flip one byte in the middle of every stripe file, truncate
    // the tail of one, and replace another with garbage.
    unsigned file_index = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        const auto size = std::filesystem::file_size(entry);
        if (file_index == 0 && size > 16) {
            std::filesystem::resize_file(entry, size - 9);
        } else if (file_index == 1) {
            std::ofstream out(entry.path(),
                              std::ios::binary | std::ios::trunc);
            out << "not a cache file at all";
        } else {
            std::fstream io(entry.path(),
                            std::ios::binary | std::ios::in |
                                std::ios::out);
            io.seekp(static_cast<std::streamoff>(size / 2));
            io.put('\xff');
        }
        ++file_index;
    }

    // Every key must now either hit with the original payload or
    // miss; no read may fail hard.
    {
        ResultCache cache(dir);
        unsigned misses = 0;
        for (const Hash128 &key : keys) {
            std::string payload;
            if (!cache.lookup(key, payload))
                ++misses;
            else
                EXPECT_EQ(payload.size(), 50u);
        }
        EXPECT_GT(misses, 0u);
        EXPECT_GT(cache.stats().badRecords, 0u);

        // The damaged stripes accept fresh stores again (damaged
        // tails are cut back so the appends stay reachable).
        for (std::uint32_t i = 0; i < 64; ++i) {
            cache.store(CacheKeyBuilder("fresh").u32(i).digest(),
                        "new-" + std::to_string(i));
        }
    }

    // The fresh entries survive a reopen.  Only the stripe whose
    // file was replaced with a foreign blob may drop its share
    // (it is left untouched and never appended to).
    ResultCache reopened(dir);
    unsigned fresh_hits = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
        std::string payload;
        if (reopened.lookup(
                CacheKeyBuilder("fresh").u32(i).digest(),
                payload)) {
            EXPECT_EQ(payload, "new-" + std::to_string(i));
            ++fresh_hits;
        }
    }
    EXPECT_GE(fresh_hits, 48u);
}

// ------------------------------------- engine-level cache behaviour

/** Exact equality of two register-file experiment results. */
void
expectIdentical(const RegFileExperimentResult &a,
                const RegFileExperimentResult &b)
{
    EXPECT_EQ(a.baselineBias, b.baselineBias);
    EXPECT_EQ(a.isvBias, b.isvBias);
    EXPECT_EQ(a.baselineWorst, b.baselineWorst);
    EXPECT_EQ(a.isvWorst, b.isvWorst);
    EXPECT_EQ(a.freeFraction, b.freeFraction);
    EXPECT_EQ(a.guardbandBaseline, b.guardbandBaseline);
    EXPECT_EQ(a.guardbandIsv, b.guardbandIsv);
    EXPECT_EQ(a.isvStats.updatesApplied,
              b.isvStats.updatesApplied);
    EXPECT_EQ(a.isvStats.updatesDiscarded,
              b.isvStats.updatesDiscarded);
    EXPECT_EQ(a.isvStats.updatesSkipped,
              b.isvStats.updatesSkipped);
}

/** Exact equality of two scheduler experiment results. */
void
expectIdentical(const SchedulerExperimentResult &a,
                const SchedulerExperimentResult &b)
{
    EXPECT_EQ(a.baselineBias, b.baselineBias);
    EXPECT_EQ(a.protectedBias, b.protectedBias);
    EXPECT_EQ(a.baselineWorstFig8, b.baselineWorstFig8);
    EXPECT_EQ(a.protectedWorstFig8, b.protectedWorstFig8);
    EXPECT_EQ(a.occupancy, b.occupancy);
    EXPECT_EQ(a.guardband, b.guardband);
    EXPECT_EQ(a.efficiency, b.efficiency);
}

TEST(CachedEngine, ColdWarmUncachedAndJobsAllBitIdentical)
{
    const WorkloadSet workload;
    const RegFileExperimentResult uncached =
        runRegFileExperiment(workload, false, fastOptions());

    ExperimentOptions options = fastOptions();
    ResultCache cache;
    options.cache = &cache;
    const RegFileExperimentResult cold =
        runRegFileExperiment(workload, false, options);
    const std::uint64_t stores = cache.stats().stores;
    EXPECT_GT(stores, 0u);

    const RegFileExperimentResult warm =
        runRegFileExperiment(workload, false, options);
    EXPECT_EQ(cache.stats().stores, stores); // pure hits

    options.jobs = 4;
    const RegFileExperimentResult warm4 =
        runRegFileExperiment(workload, false, options);

    expectIdentical(cold, uncached);
    expectIdentical(warm, uncached);
    expectIdentical(warm4, uncached);
}

TEST(ResultMemo, CopiesShareOneMemoAndAnExternalCacheReplacesIt)
{
    const WorkloadSet workload;
    ExperimentOptions options = fastOptions();
    const ExperimentOptions copy = options;
    ASSERT_NE(options.results(), nullptr);
    EXPECT_EQ(copy.results(), options.results());
    EXPECT_NE(fastOptions().results(), options.results());

    // A run through the copy fills the memo the original reads: the
    // second run is pure hits and bit-identical to the first.
    const RegFileExperimentResult first =
        runRegFileExperiment(workload, false, copy);
    ResultCache &memo = *options.results();
    const ResultCache::Stats cold = memo.stats();
    EXPECT_GT(cold.stores, 0u);
    EXPECT_EQ(memo.size(), cold.stores);
    const RegFileExperimentResult second =
        runRegFileExperiment(workload, false, options);
    const ResultCache::Stats warm = memo.stats();
    EXPECT_EQ(warm.stores, cold.stores);
    EXPECT_EQ(warm.hits - cold.hits, cold.stores);
    expectIdentical(second, first);

    // An attached cache takes every lookup and store.
    ResultCache cache;
    options.cache = &cache;
    EXPECT_EQ(options.results(), &cache);
    EXPECT_EQ(copy.results(), &memo);
    expectIdentical(runRegFileExperiment(workload, false, options),
                    first);
    EXPECT_EQ(cache.stats().stores, cold.stores);
    EXPECT_EQ(memo.stats().hits, warm.hits);
}

TEST(CachedEngine, ChangedOptionsNeverPoisonResults)
{
    const WorkloadSet workload;
    ResultCache cache;

    ExperimentOptions small = fastOptions();
    ExperimentOptions large = fastOptions();
    large.uopsPerTrace = 3'000;

    // Uncached references.
    const auto ref_small =
        runRegFileExperiment(workload, false, small);
    const auto ref_large =
        runRegFileExperiment(workload, false, large);
    ASSERT_NE(ref_small.baselineWorst, ref_large.baselineWorst);

    // One shared cache across both option sets, run twice each:
    // every run must match its own uncached reference.
    small.cache = &cache;
    large.cache = &cache;
    expectIdentical(runRegFileExperiment(workload, false, small),
                    ref_small);
    expectIdentical(runRegFileExperiment(workload, false, large),
                    ref_large);
    expectIdentical(runRegFileExperiment(workload, false, small),
                    ref_small);
    expectIdentical(runRegFileExperiment(workload, false, large),
                    ref_large);
}

TEST(CachedEngine, GcdStoreServesBitIdenticalWarmRuns)
{
    const WorkloadSet workload;
    const std::string dir = tempDir("engine_gc");

    const RegFileExperimentResult uncached =
        runRegFileExperiment(workload, false, fastOptions());

    // Fill the store with the current options AND a stale
    // generation (an options mix that will "no longer occur").
    ExperimentOptions options = fastOptions();
    std::size_t entries_with_stale = 0;
    {
        ResultCache cache(dir);
        ExperimentOptions stale = fastOptions();
        stale.uopsPerTrace = 3'000;
        stale.cache = &cache;
        runRegFileExperiment(workload, false, stale);
        options.cache = &cache;
        runRegFileExperiment(workload, false, options);
        entries_with_stale = cache.size();
    }

    // Warm run of only the current options, then GC.
    std::size_t entries_after_gc = 0;
    {
        ResultCache cache(dir);
        options.cache = &cache;
        const RegFileExperimentResult warm =
            runRegFileExperiment(workload, false, options);
        expectIdentical(warm, uncached);
        EXPECT_EQ(cache.stats().stores, 0u);
        EXPECT_GT(cache.compact(), 0u);
        entries_after_gc = cache.size();
    }
    EXPECT_LT(entries_after_gc, entries_with_stale);

    // The GC'd store still serves a fully warm, bit-identical run.
    ResultCache cache(dir);
    options.cache = &cache;
    const RegFileExperimentResult warm_after_gc =
        runRegFileExperiment(workload, false, options);
    expectIdentical(warm_after_gc, uncached);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_GT(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().decodeFailures, 0u);
}

TEST(CachedEngine, CorruptDiskCacheReproducesColdRunExactly)
{
    const WorkloadSet workload;
    const std::string dir = tempDir("engine_corrupt");

    const auto reference =
        runRegFileExperiment(workload, false, fastOptions());

    ExperimentOptions options = fastOptions();
    {
        ResultCache cache(dir);
        options.cache = &cache;
        runRegFileExperiment(workload, false, options);
    }

    // Bit-flip one payload byte in every stored stripe file.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        const auto size = std::filesystem::file_size(entry);
        std::fstream io(entry.path(), std::ios::binary |
                            std::ios::in | std::ios::out);
        io.seekg(static_cast<std::streamoff>(size / 2));
        const char byte = static_cast<char>(io.get());
        io.seekp(static_cast<std::streamoff>(size / 2));
        io.put(static_cast<char>(byte ^ 0x40));
    }

    ResultCache cache(dir);
    options.cache = &cache;
    const auto after =
        runRegFileExperiment(workload, false, options);
    expectIdentical(after, reference);
}

TEST(CachedEngine, ShardMergeReproducesUnshardedRun)
{
    const WorkloadSet workload;
    const std::string dir = tempDir("shards");

    ExperimentOptions options = fastOptions();
    options.traceStride = 48;
    const auto reference =
        runSchedulerExperiment(workload, options);

    // Two shard runs, each exporting its slice.
    std::vector<std::string> files;
    for (unsigned shard = 0; shard < 2; ++shard) {
        ResultCache cache;
        ExperimentOptions opts = options;
        opts.cache = &cache;
        opts.shardIndex = shard;
        opts.shardCount = 2;
        runSchedulerExperiment(workload, opts);
        files.push_back(dir + "/s" + std::to_string(shard) +
                        ".bin");
        ASSERT_TRUE(cache.exportTo(files.back()));
    }

    // Merge: import both shard files, then run the full set; all
    // evaluation replays must come from the imported entries.
    ResultCache merged;
    for (const std::string &file : files)
        ASSERT_TRUE(merged.importFrom(file));
    ExperimentOptions opts = options;
    opts.cache = &merged;
    const auto combined = runSchedulerExperiment(workload, opts);
    expectIdentical(combined, reference);
    EXPECT_EQ(merged.stats().stores, 0u); // everything hit
}

TEST(CachedEngine, MemLossSampleServesBothFoldDirections)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 97, 311};
    ResultCache cache;

    const PerfLossStats dl0_ref = measurePerfLoss(
        workload, traces, 2'000, CacheConfig(),
        CacheConfig::tlb(128, 8), MechanismKind::LineFixed50,
        true);
    const PerfLossStats dl0_cached = measurePerfLoss(
        workload, traces, 2'000, CacheConfig(),
        CacheConfig::tlb(128, 8), MechanismKind::LineFixed50,
        true, MemTimingParams(), 0.1, 1, nullptr, &cache);
    EXPECT_EQ(dl0_cached.meanLoss, dl0_ref.meanLoss);
    EXPECT_EQ(dl0_cached.meanInvertRatio, dl0_ref.meanInvertRatio);

    // Same (config, mechanism) pair folded for the DTLB must hit
    // the same entries yet report the DTLB ratio.
    const std::uint64_t stores = cache.stats().stores;
    const PerfLossStats warm = measurePerfLoss(
        workload, traces, 2'000, CacheConfig(),
        CacheConfig::tlb(128, 8), MechanismKind::LineFixed50,
        true, MemTimingParams(), 0.1, 1, nullptr, &cache);
    EXPECT_EQ(cache.stats().stores, stores);
    EXPECT_EQ(warm.meanLoss, dl0_ref.meanLoss);
}

} // namespace
} // namespace penelope
