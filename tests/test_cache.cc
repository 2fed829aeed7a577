/**
 * @file
 * Tests for the cache model: lookup/replacement semantics, MRU
 * accounting, inversion invariants for every mechanism, the dynamic
 * test machinery and the timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/inversion.hh"
#include "cache/timing.hh"
#include "obs/metrics.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024; // 16 sets x 4 ways
    cfg.ways = 4;
    cfg.writePortFreeProb = 1.0;
    return cfg;
}

// ----------------------------------------------------------- Basic

TEST(Cache, Geometry)
{
    Cache c(smallCache());
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.numWays(), 4u);
    EXPECT_EQ(c.numLines(), 64u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false, 1).hit);
    EXPECT_TRUE(c.access(0x1000, false, 2).hit);
    EXPECT_TRUE(c.access(0x1020, false, 3).hit); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, DistinctLinesDistinctEntries)
{
    Cache c(smallCache());
    c.access(0x0, false, 1);
    c.access(0x40, false, 2);
    EXPECT_TRUE(c.access(0x0, false, 3).hit);
    EXPECT_TRUE(c.access(0x40, false, 4).hit);
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    // Fill one set (stride = numSets * lineBytes = 1024).
    for (int i = 0; i < 4; ++i)
        c.access(i * 1024, false, i + 1);
    // Touch line 0 so line 1 becomes LRU.
    c.access(0, false, 10);
    // Allocate a 5th line: victim must be line 1.
    c.access(4 * 1024, false, 11);
    EXPECT_TRUE(c.access(0, false, 12).hit);
    EXPECT_FALSE(c.access(1 * 1024, false, 13).hit);
}

TEST(Cache, MruPositionTracking)
{
    Cache c(smallCache());
    c.access(0, false, 1);
    c.access(1024, false, 2);
    // Line 0 is now at position 1; hit it.
    const AccessResult r = c.access(0, false, 3);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.mruPosition, 1u);
    // Immediately re-hit: now MRU.
    EXPECT_EQ(c.access(0, false, 4).mruPosition, 0u);
    EXPECT_EQ(c.mruHitPositions().count(1), 1u);
}

TEST(Cache, MissRate)
{
    Cache c(smallCache());
    c.access(0, false, 1);
    c.access(0, false, 2);
    c.access(64, false, 3);
    c.access(64, false, 4);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, TlbConfigGeometry)
{
    const CacheConfig tlb = CacheConfig::tlb(128, 8);
    EXPECT_EQ(tlb.numSets(), 16u);
    EXPECT_EQ(tlb.numLines(), 128u);
    EXPECT_EQ(tlb.lineBytes, 4096u);
    Cache c(tlb);
    EXPECT_FALSE(c.access(0x1234, false, 1).hit);
    EXPECT_TRUE(c.access(0x1ffc, false, 2).hit); // same page
    EXPECT_FALSE(c.access(0x2000, false, 3).hit);
}

TEST(Cache, RandomReplacementStillCorrect)
{
    CacheConfig cfg = smallCache();
    cfg.replacement = ReplacementPolicy::Random;
    Cache c(cfg);
    for (int i = 0; i < 100; ++i)
        c.access(i * 1024, false, i + 1);
    // All 100 lines mapped to set 0; only 4 can be resident.
    unsigned resident = 0;
    for (int i = 0; i < 100; ++i)
        resident += c.access(i * 1024, false, 200 + i).hit;
    EXPECT_LE(resident, 4u);
}

TEST(Cache, FillDrawsRngEvenWithData)
{
    // A fill evaluates data.value_or(rng_()) eagerly, so it draws
    // from the cache's Rng even when the caller supplies the data.
    // The mechanisms share that Rng, so the draw is part of every
    // pinned result.
    const CacheConfig cfg = smallCache();
    Cache c(cfg);
    EXPECT_FALSE(c.access(0x40, true, 1, Word(5)).hit);
    Rng expected(0xcac4e + cfg.sizeBytes + cfg.ways);
    expected();
    EXPECT_EQ(c.rng()(), expected());
}

/** Whether (set, way) lies in the usable window that a SetFixed
 *  (@p by_sets) or WayFixed mechanism of @p ratio, rotating every
 *  @p period cycles, holds at @p now -- recomputed here from the
 *  mechanism's definition, not read back from the cache. */
bool
inUsableWindow(const Cache &c, bool by_sets, double ratio,
               Cycle period, Cycle now, unsigned set, unsigned way)
{
    const unsigned n = by_sets ? c.numSets() : c.numWays();
    const unsigned usable =
        n - std::min<unsigned>(
                n - 1, static_cast<unsigned>(std::lround(ratio * n)));
    const unsigned first = static_cast<unsigned>(now / period) % n;
    const unsigned i = by_sets ? set : way;
    return (i + n - first) % n < usable;
}

TEST(Cache, ValidLinesStayInUsableWindow)
{
    // The kernel's whole-set hit scan relies on this: only ways of
    // the usable window ever hold valid lines.  A quarter of 16
    // sets leaves 12 usable, which takes the modulo (not mask)
    // set index.
    struct Case
    {
        bool bySets; ///< SetFixed, else WayFixed
        double ratio;
    };
    const Case cases[] = {{true, 0.5}, {false, 0.5}, {true, 0.25}};
    constexpr Cycle period = 500;
    for (const Case &tc : cases) {
        SCOPED_TRACE(std::string(tc.bySets ? "SetFixed" : "WayFixed") +
                     " ratio " + std::to_string(tc.ratio));
        const CacheConfig cfg = smallCache();
        Cache c(cfg);
        if (tc.bySets)
            c.setPolicy(
                std::make_unique<SetFixedInversion>(tc.ratio, period));
        else
            c.setPolicy(
                std::make_unique<WayFixedInversion>(tc.ratio, period));
        Rng rng(11);
        unsigned valid_seen = 0;
        for (Cycle now = 1; now <= 40 * period; ++now) {
            c.tick(now);
            const Addr addr = rng.nextInt(4 * cfg.sizeBytes / 64) * 64;
            c.access(addr, rng.nextBool(0.3), now, rng());
            for (unsigned s = 0; s < c.numSets(); ++s) {
                for (unsigned w = 0; w < c.numWays(); ++w) {
                    if (!c.lineValid(s, w))
                        continue;
                    ++valid_seen;
                    ASSERT_TRUE(inUsableWindow(c, tc.bySets, tc.ratio,
                                               period, now, s, w))
                        << "valid line at set " << s << " way " << w
                        << ", cycle " << now;
                }
            }
        }
        EXPECT_GT(valid_seen, 0u);
    }
}

// ------------------------------------------------------- Inversion

TEST(Inversion, InvertLineInvariants)
{
    Cache c(smallCache());
    c.access(0, false, 1);
    EXPECT_TRUE(c.lineValid(0, 0));
    EXPECT_TRUE(c.invertLine(0, 0, 2));
    EXPECT_FALSE(c.lineValid(0, 0));
    EXPECT_TRUE(c.lineInverted(0, 0));
    EXPECT_EQ(c.invertedCount(), 1u);
    // Double inversion is rejected.
    EXPECT_FALSE(c.invertLine(0, 0, 3));
    EXPECT_EQ(c.invertedCount(), 1u);
}

TEST(Inversion, InvertedLineMissesAndIsConsumed)
{
    Cache c(smallCache());
    c.access(0, false, 1);
    c.invertLine(0, 0, 2);
    const AccessResult miss = c.access(0, false, 3);
    EXPECT_FALSE(miss.hit);
    EXPECT_TRUE(miss.consumedInvertedLine);
    EXPECT_EQ(c.invertedCount(), 0u);
}

TEST(Inversion, InvertPrefersDeadLines)
{
    Cache c(smallCache());
    c.access(0, false, 1); // one valid line in set 0
    // Set has 3 plain-invalid ways: inversion must take one of
    // those, keeping the valid line resident.
    EXPECT_TRUE(c.invertLruLineOfSet(0, 2));
    EXPECT_TRUE(c.access(0, false, 3).hit);
    EXPECT_EQ(c.invertedCount(), 1u);
}

TEST(Inversion, InvertFallsBackToLruValid)
{
    Cache c(smallCache());
    for (int w = 0; w < 4; ++w)
        c.access(w * 1024, false, w + 1);
    // Set 0 fully valid; LRU is line 0 (oldest).
    EXPECT_TRUE(c.invertLruLineOfSet(0, 10));
    EXPECT_FALSE(c.access(0, false, 11).hit);
}

TEST(Inversion, LineFixedReachesThreshold)
{
    Cache c(smallCache());
    c.setPolicy(std::make_unique<LineFixedInversion>(0.5));
    WorkloadSet w;
    TraceGenerator gen = w.generator(5);
    Cycle now = 0;
    for (int i = 0; i < 30000; ++i) {
        ++now;
        c.tick(now);
        const Uop uop = gen.next();
        if (isMemory(uop.cls))
            c.access(uop.addr, uop.cls == UopClass::Store, now);
    }
    EXPECT_NEAR(c.invertRatio(), 0.5, 0.05);
    EXPECT_EQ(c.invertedCount(),
              static_cast<LineFixedInversion *>(c.policy())
                  ->threshold());
}

TEST(Inversion, SetFixedHalvesCapacity)
{
    Cache c(smallCache());
    c.setPolicy(std::make_unique<SetFixedInversion>(0.5));
    // Inverted ratio should be 0.5 immediately (8 of 16 sets).
    EXPECT_NEAR(c.invertRatio(), 0.5, 0.01);
    // 64 distinct lines exceed the 32-line effective capacity.
    for (int i = 0; i < 64; ++i)
        c.access(i * 64, false, i + 1);
    unsigned hits = 0;
    for (int i = 0; i < 64; ++i)
        hits += c.access(i * 64, false, 100 + i).hit;
    EXPECT_LE(hits, 32u);
}

TEST(Inversion, WayFixedHalvesAssociativity)
{
    Cache c(smallCache());
    c.setPolicy(std::make_unique<WayFixedInversion>(0.5));
    EXPECT_NEAR(c.invertRatio(), 0.5, 0.01);
    // 4 lines in one set, only 2 usable ways.
    for (int i = 0; i < 4; ++i)
        c.access(i * 1024, false, i + 1);
    unsigned hits = 0;
    for (int i = 0; i < 4; ++i)
        hits += c.access(i * 1024, false, 10 + i).hit;
    EXPECT_LE(hits, 2u);
}

TEST(Inversion, SetRotationMovesWindow)
{
    Cache c(smallCache());
    c.setPolicy(std::make_unique<SetFixedInversion>(0.5, 100));
    c.access(0, false, 1);
    // Force a rotation.
    c.tick(200);
    // The window moved: newly unusable sets are inverted right
    // away, newly usable ones drain as misses consume them, so the
    // ratio sits at or slightly above 50%.
    EXPECT_GE(c.invertRatio(), 0.5);
    EXPECT_LE(c.invertRatio(), 0.60);
}

TEST(Inversion, ShadowMarking)
{
    Cache c(smallCache());
    c.access(0, false, 1);
    EXPECT_TRUE(c.shadowMarkLruLineOfSet(0));
    EXPECT_EQ(c.shadowCount(), 1u);
    c.clearShadows();
    EXPECT_EQ(c.shadowCount(), 0u);
}

TEST(Inversion, ShadowHitCountsExtraMiss)
{
    Cache c(smallCache());
    DynamicInversionParams p;
    p.warmupCycles = 10;
    p.testCycles = 100000;
    p.periodCycles = 1000000;
    p.extraMissThreshold = 0.0; // any extra miss deactivates
    auto policy = std::make_unique<LineDynamicInversion>(p);
    LineDynamicInversion *dyn = policy.get();
    c.setPolicy(std::move(policy));
    // Fill the whole cache with valid lines so shadow marks must
    // land on live data, then keep hitting them during the test
    // phase: some hits must be flagged as induced extra misses.
    Cycle now = 1;
    for (int i = 0; i < 64; ++i)
        c.access(i * 64, false, now++);
    bool shadow_hit = false;
    for (int round = 0; round < 200 && !shadow_hit; ++round) {
        c.tick(now);
        for (int i = 0; i < 64 && !shadow_hit; ++i) {
            shadow_hit =
                c.access(i * 64, false, now).shadowExtraMiss;
        }
        ++now;
    }
    EXPECT_TRUE(shadow_hit);
    EXPECT_TRUE(dyn != nullptr);
}

TEST(Inversion, DynamicDeactivatesForCacheHungryProgram)
{
    // A program hammering every line of the cache should fail the
    // extra-miss test and keep the mechanism off.
    CacheConfig cfg = smallCache();
    Cache c(cfg);
    DynamicInversionParams p;
    p.warmupCycles = 500;
    p.testCycles = 500;
    p.periodCycles = 20000;
    p.extraMissThreshold = 0.01;
    c.setPolicy(std::make_unique<LineDynamicInversion>(p));
    Cycle now = 0;
    Rng rng(3);
    for (int i = 0; i < 40000; ++i) {
        ++now;
        c.tick(now);
        // Uniform sweep over exactly the cache capacity.
        c.access((i % 64) * 64, false, now);
    }
    EXPECT_LT(c.averageInvertRatio(now), 0.15);
}

TEST(Inversion, DynamicActivatesForSmallFootprint)
{
    CacheConfig cfg = smallCache();
    Cache c(cfg);
    DynamicInversionParams p;
    p.warmupCycles = 500;
    p.testCycles = 500;
    p.periodCycles = 50000;
    p.extraMissThreshold = 0.02;
    auto policy = std::make_unique<LineDynamicInversion>(p);
    LineDynamicInversion *dyn = policy.get();
    c.setPolicy(std::move(policy));
    Cycle now = 0;
    for (int i = 0; i < 40000; ++i) {
        ++now;
        c.tick(now);
        // Footprint of 8 lines: trivially fits half the cache.
        c.access((i % 8) * 64, false, now);
    }
    EXPECT_GT(dyn->activeFraction(), 0.9);
    EXPECT_GT(c.invertRatio(), 0.4);
}

TEST(Inversion, DataBiasBalancedByInversion)
{
    // The stored-image bias moves towards 50% when lines spend half
    // their time inverted.
    CacheConfig cfg = smallCache();
    Cache c(cfg);
    Cycle now = 0;
    Rng rng(9);
    for (int i = 0; i < 20000; ++i) {
        ++now;
        // Biased data: mostly zero words.
        const Word data = rng.nextBool(0.9) ? 0 : ~Word(0);
        c.access((i % 64) * 64, true, now, data);
        if ((i % 2) == 0) {
            const unsigned set =
                static_cast<unsigned>(rng.nextInt(c.numSets()));
            c.invertLruLineOfSet(set, now);
        }
    }
    const BitBiasTracker &bias = c.finalizeDataBias(now);
    // Unprotected, the 90%-zero stream leaves cells near 90%
    // stress; inversion pulls the worst cell well below that.
    EXPECT_LT(bias.maxWorstCaseStress(), 0.84);
}

TEST(Inversion, MechanismNames)
{
    EXPECT_EQ(SetFixedInversion(0.5).name(), "SetFixed50%");
    EXPECT_EQ(LineFixedInversion(0.5).name(), "LineFixed50%");
    EXPECT_EQ(WayFixedInversion(0.5).name(), "WayFixed50%");
    EXPECT_EQ(LineDynamicInversion().name(), "LineDynamic60%");
}

TEST(Inversion, PaperThresholdTables)
{
    EXPECT_DOUBLE_EQ(dl0ExtraMissThreshold(32 * 1024), 0.02);
    EXPECT_DOUBLE_EQ(dl0ExtraMissThreshold(16 * 1024), 0.03);
    EXPECT_DOUBLE_EQ(dl0ExtraMissThreshold(8 * 1024), 0.04);
    EXPECT_DOUBLE_EQ(dtlbExtraMissThreshold(128), 0.005);
    EXPECT_DOUBLE_EQ(dtlbExtraMissThreshold(64), 0.01);
    EXPECT_DOUBLE_EQ(dtlbExtraMissThreshold(32), 0.02);
}

// ---------------------------------------------------------- Timing

/** FNV-1a over a bias tracker's integer state (total time, then
 *  every bit's zero time): everything its bias vector derives
 *  from. */
std::uint64_t
biasDigest(const BitBiasTracker &bias)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(bias.totalTime());
    for (unsigned b = 0; b < bias.width(); ++b)
        mix(bias.zeroTime(b));
    return h;
}

TEST(Timing, BaselineCyclesScaleWithUops)
{
    WorkloadSet w;
    TraceGenerator gen = w.generator(0);
    MemTimingSim sim(CacheConfig(), CacheConfig::tlb(128, 8),
                     MemTimingParams(), MechanismKind::None,
                     MechanismKind::None);
    const MemSimResult r = sim.run(gen, 10000);
    EXPECT_EQ(r.uops, 10000u);
    EXPECT_GT(r.cycles, 10000 * 0.6);
    EXPECT_GT(r.memOps, 1000u);
    EXPECT_EQ(r.dl0Hits + r.dl0Misses, r.memOps);
}

TEST(Timing, MissesCostCycles)
{
    WorkloadSet w;
    MemTimingParams cheap;
    cheap.dl0MissPenalty = 0;
    cheap.dtlbMissPenalty = 0;
    MemTimingParams costly;

    TraceGenerator g1 = w.generator(8);
    MemTimingSim s1(CacheConfig(), CacheConfig::tlb(128, 8), cheap,
                    MechanismKind::None, MechanismKind::None);
    TraceGenerator g2 = w.generator(8);
    MemTimingSim s2(CacheConfig(), CacheConfig::tlb(128, 8), costly,
                    MechanismKind::None, MechanismKind::None);
    const double c1 = s1.run(g1, 10000).cycles;
    const double c2 = s2.run(g2, 10000).cycles;
    EXPECT_GT(c2, c1);
}

TEST(Timing, StreamReplayMatchesGeneratorRun)
{
    // The materialised MemStream must drive a MemTimingSim exactly
    // as the generator it was drawn from does, for every mechanism
    // on either structure, and both must equal the absolute pins
    // (the bias digests show the data column reaches the cells'
    // accounting).
    WorkloadSet w;
    constexpr std::size_t n = 6000;
    TraceGenerator stream_gen = w.generator(97);
    const MemStream stream = MemStream::generate(stream_gen, n);
    ASSERT_EQ(stream.size(), n);
    ASSERT_EQ(stream.addrs.size(), stream.data.size());

    const MechanismKind kinds[] = {
        MechanismKind::None, MechanismKind::SetFixed50,
        MechanismKind::WayFixed50, MechanismKind::LineFixed50,
        MechanismKind::LineDynamic60};
    struct Pin
    {
        std::uint64_t memOps, dl0Hits, dl0Misses, dtlbHits, dtlbMisses;
        double cycles, dl0AvgInvertRatio, dtlbAvgInvertRatio;
        std::uint64_t dl0Bias, dtlbBias;
    };
    // [mechanism][DL0, DTLB]
    const Pin pinned[5][2] = {
        {{2583, 2123, 460, 2484, 99, 0x1.832fffffffcd3p+13, 0x0p+0,
          0x0p+0, 0xce1a4dace28fbec9ull, 0xc993663c3dd2eb6cull},
         {2583, 2123, 460, 2484, 99, 0x1.832fffffffcd3p+13, 0x0p+0,
          0x0p+0, 0xce1a4dace28fbec9ull, 0xc993663c3dd2eb6cull}},
        {{2583, 2080, 503, 2484, 99, 0x1.934fffffffcd3p+13, 0x1p-1,
          0x0p+0, 0x830b3cfc189f1a35ull, 0x9987918bf0db422cull},
         {2583, 2123, 460, 2479, 104, 0x1.87dfffffffcd3p+13, 0x0p+0,
          0x1p-1, 0xc240e7d6c346e080ull, 0xc9eef1087848ca69ull}},
        {{2583, 2077, 506, 2484, 99, 0x1.946fffffffcd3p+13, 0x1p-1,
          0x0p+0, 0x5905ff70a5fbc23dull, 0x2044ce3d6c7b3ef1ull},
         {2583, 2123, 460, 2480, 103, 0x1.86efffffffcd3p+13, 0x0p+0,
          0x1p-1, 0xc3eee963f3d781bfull, 0x1502bf25da10d61bull}},
        {{2583, 2073, 510, 2484, 99, 0x1.95efffffffccep+13,
          0x1.edf0b4b124f45p-2, 0x0p+0, 0xf7969c3a5646c757ull,
          0x0855a0b498d4deebull},
         {2583, 2123, 460, 2474, 109, 0x1.8c8fffffffcd3p+13, 0x0p+0,
          0x1.f74caf5c573c9p-2, 0x2f6f7ab36a79a7fbull,
          0x81a7dedb3023fa45ull}},
        {{2583, 2047, 536, 2484, 99, 0x1.9fafffffffcd3p+13,
          0x1.9a849c0d51963p-2, 0x0p+0, 0x8718ddb20a4b3ddaull,
          0x430eaab480a81887ull},
         {2583, 2123, 460, 2484, 99, 0x1.832fffffffcd3p+13, 0x0p+0,
          0x0p+0, 0xce1a4dace28fbec9ull, 0xc993663c3dd2eb6cull}},
    };
    for (std::size_t k = 0; k < 5; ++k) {
        const MechanismKind kind = kinds[k];
        for (const bool on_dl0 : {true, false}) {
            SCOPED_TRACE(std::string(mechanismName(kind)) +
                         (on_dl0 ? " on DL0" : " on DTLB"));
            const MechanismKind dl0 =
                on_dl0 ? kind : MechanismKind::None;
            const MechanismKind dtlb =
                on_dl0 ? MechanismKind::None : kind;
            MemTimingSim by_gen(CacheConfig(),
                                CacheConfig::tlb(128, 8),
                                MemTimingParams(), dl0, dtlb, 0.01);
            TraceGenerator gen = w.generator(97);
            const MemSimResult a = by_gen.run(gen, n);
            MemTimingSim by_stream(CacheConfig(),
                                   CacheConfig::tlb(128, 8),
                                   MemTimingParams(), dl0, dtlb,
                                   0.01);
            const MemSimResult b = by_stream.run(stream);

            EXPECT_EQ(a.uops, b.uops);
            EXPECT_EQ(a.memOps, b.memOps);
            EXPECT_EQ(a.memOps, stream.addrs.size());
            EXPECT_EQ(a.dl0Hits, b.dl0Hits);
            EXPECT_EQ(a.dl0Misses, b.dl0Misses);
            EXPECT_EQ(a.dtlbHits, b.dtlbHits);
            EXPECT_EQ(a.dtlbMisses, b.dtlbMisses);
            EXPECT_EQ(a.cycles, b.cycles);
            EXPECT_EQ(a.dl0AvgInvertRatio, b.dl0AvgInvertRatio);
            EXPECT_EQ(a.dtlbAvgInvertRatio, b.dtlbAvgInvertRatio);
            // The data column reaches the cells' bias accounting.
            const Cycle end = static_cast<Cycle>(a.cycles);
            EXPECT_EQ(
                by_gen.dl0().finalizeDataBias(end).biasVector(),
                by_stream.dl0().finalizeDataBias(end).biasVector());
            EXPECT_EQ(
                by_gen.dtlb().finalizeDataBias(end).biasVector(),
                by_stream.dtlb().finalizeDataBias(end).biasVector());

            const Pin &want = pinned[k][on_dl0 ? 0 : 1];
            EXPECT_EQ(b.uops, n);
            EXPECT_EQ(b.memOps, want.memOps);
            EXPECT_EQ(b.dl0Hits, want.dl0Hits);
            EXPECT_EQ(b.dl0Misses, want.dl0Misses);
            EXPECT_EQ(b.dtlbHits, want.dtlbHits);
            EXPECT_EQ(b.dtlbMisses, want.dtlbMisses);
            EXPECT_EQ(b.cycles, want.cycles);
            EXPECT_EQ(b.dl0AvgInvertRatio, want.dl0AvgInvertRatio);
            EXPECT_EQ(b.dtlbAvgInvertRatio, want.dtlbAvgInvertRatio);
            EXPECT_EQ(biasDigest(by_stream.dl0().finalizeDataBias(end)),
                      want.dl0Bias);
            EXPECT_EQ(
                biasDigest(by_stream.dtlb().finalizeDataBias(end)),
                want.dtlbBias);
        }
    }
}

/** Table 3's cells, in runTable3Experiment's order: each DL0 row's
 *  mechanisms on the default DTLB, each DTLB row's on the default
 *  DL0, WayFixed50% on the default DL0, LineFixed50% on both. */
std::vector<MemCell>
table3Cells()
{
    const CacheConfig dl0;
    const CacheConfig dtlb = CacheConfig::tlb(128, 8);
    const MechanismKind mechanisms[] = {MechanismKind::SetFixed50,
                                        MechanismKind::LineFixed50,
                                        MechanismKind::LineDynamic60};
    std::vector<MemCell> cells;
    for (const unsigned ways : {8u, 4u}) {
        for (const unsigned kb : {32u, 16u, 8u}) {
            CacheConfig row;
            row.sizeBytes = kb * 1024;
            row.ways = ways;
            for (const MechanismKind m : mechanisms)
                cells.push_back({row, dtlb, m, MechanismKind::None});
        }
    }
    for (const unsigned entries : {128u, 64u, 32u}) {
        for (const MechanismKind m : mechanisms) {
            cells.push_back({dl0, CacheConfig::tlb(entries, 8),
                             MechanismKind::None, m});
        }
    }
    cells.push_back({dl0, dtlb, MechanismKind::WayFixed50,
                     MechanismKind::None});
    cells.push_back({dl0, dtlb, MechanismKind::LineFixed50,
                     MechanismKind::LineFixed50});
    return cells;
}

/** The oracle: @p cell as two two-cache runs, baseline and
 *  mechanism, folded as the driver folds them. */
MemLossSample
jointSample(const MemStream &stream, const MemCell &cell,
            double time_scale)
{
    MemTimingSim base(cell.dl0, cell.dtlb, MemTimingParams(),
                      MechanismKind::None, MechanismKind::None,
                      time_scale);
    MemTimingSim mech(cell.dl0, cell.dtlb, MemTimingParams(),
                      cell.dl0Mechanism, cell.dtlbMechanism,
                      time_scale);
    const double base_cycles = base.run(stream).cycles;
    const MemSimResult r = mech.run(stream);
    return {r.cycles / base_cycles - 1.0, r.cycles / base_cycles,
            r.dl0AvgInvertRatio, r.dtlbAvgInvertRatio};
}

void
expectSameBits(const MemLossSample &a, const MemLossSample &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.loss),
              std::bit_cast<std::uint64_t>(b.loss));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.normalizedCycles),
              std::bit_cast<std::uint64_t>(b.normalizedCycles));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.dl0InvertRatio),
              std::bit_cast<std::uint64_t>(b.dl0InvertRatio));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.dtlbInvertRatio),
              std::bit_cast<std::uint64_t>(b.dtlbInvertRatio));
}

std::uint64_t
counterValue(const char *name)
{
    const obs::Snapshot snap = obs::Registry::instance().scrape();
    const obs::SnapshotMetric *m = snap.find(name);
    return m ? m->scalar() : 0;
}

TEST(Timing, SplitReplayMatchesJoint)
{
    // Every Table-3 cell, priced by the split driver, equals two
    // two-cache runs bit for bit, on traces of the default and of
    // another workload seed.  Per trace the split runs both caches
    // twice (the first baseline and the two-sided cell) and one
    // cache for the other 7 baselines and 28 cells.  Two more cells
    // have a non-LRU DL0: its baselines replay it against the
    // DTLB's record, the random one carries a mechanism and replays
    // likewise, but the pLRU one carries none while the DTLB does,
    // so that cell runs both caches.
    std::vector<MemCell> cells = table3Cells();
    ASSERT_EQ(cells.size(), 29u);
    CacheConfig plru;
    plru.replacement = ReplacementPolicy::PseudoLru;
    CacheConfig random;
    random.replacement = ReplacementPolicy::Random;
    cells.push_back({plru, CacheConfig::tlb(128, 8), MechanismKind::None,
                     MechanismKind::LineFixed50});
    cells.push_back({random, CacheConfig::tlb(128, 8),
                     MechanismKind::LineFixed50, MechanismKind::None});
    constexpr double time_scale = 0.05;
    const obs::ScopedEnable enable;
    const std::uint64_t runs_before = counterValue("memsim.runs");
    const std::uint64_t sides_before =
        counterValue("memsim.side_runs");
    const std::uint64_t fallbacks_before =
        counterValue("memsim.fallbacks");
    unsigned streams = 0;
    for (const std::uint64_t seed :
         {std::uint64_t(0x50454e454c4f50), std::uint64_t(0x5eed)}) {
        const WorkloadSet w(seed);
        for (const unsigned index : w.strided(96)) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " trace " +
                         std::to_string(index));
            TraceGenerator gen = w.generator(index);
            const MemStream stream = MemStream::generate(gen, 20000);
            const std::vector<MemLossSample> split =
                simulateStreamCells(stream, cells, MemTimingParams(),
                                    time_scale);
            ++streams;
            ASSERT_EQ(split.size(), cells.size());
            for (std::size_t c = 0; c < cells.size(); ++c) {
                SCOPED_TRACE("cell " + std::to_string(c));
                expectSameBits(split[c],
                               jointSample(stream, cells[c],
                                           time_scale));
            }
        }
    }
    // The oracle makes 2 two-cache runs per cell, the split 3 per
    // stream plus one per fallback.
    EXPECT_EQ(counterValue("memsim.side_runs") - sides_before,
              streams * 38u);
    EXPECT_EQ(counterValue("memsim.runs") - runs_before,
              streams * (3 + 2 * cells.size()) +
                  counterValue("memsim.fallbacks") - fallbacks_before);
}

TEST(Timing, SplitReplayGuardCatchesTieFlip)
{
    // One-set DL0 and DTLB, two ways each.  In the baseline, DTLB
    // accesses 3 (page B, way 1) and 4 (page A, way 0) share cycle
    // 99, so access 5 (page C) evicts the newer page A by the
    // first-way tie rule, and access 6 misses on it.  WayFixed50%
    // leaves the DL0 one way, so access 3 misses the DL0: its 12
    // cycles split the tie, page B goes instead and access 6 hits.
    // The DTLB's recorded misses are wrong for that cell, and only
    // the tie guard can tell.
    CacheConfig dl0;
    dl0.sizeBytes = 128;
    dl0.ways = 2;
    const CacheConfig dtlb = CacheConfig::tlb(2, 2);
    ASSERT_EQ(dl0.numSets(), 1u);
    ASSERT_EQ(dtlb.numSets(), 1u);

    MemStream stream;
    const Addr page_a = 0x0000, page_b = 0x1000, page_c = 0x2000;
    for (const Addr addr :
         {page_a, page_b, page_b + 0x40, Addr(1), Addr(1), page_b,
          page_a, page_c, page_a}) {
        if (addr == 1) {
            stream.kinds.push_back(MemKind::Other);
            continue;
        }
        stream.kinds.push_back(MemKind::Load);
        stream.addrs.push_back(addr);
        stream.data.push_back(addr);
    }

    MemTimingSim reference(dl0, dtlb, MemTimingParams(),
                           MechanismKind::None, MechanismKind::None);
    MissRecord dl0_record;
    MissRecord dtlb_record;
    reference.run(stream, &dl0_record, &dtlb_record);
    ASSERT_EQ(dtlb_record.ties.size(), 1u);
    EXPECT_EQ(dtlb_record.ties[0].older, 3u);
    EXPECT_TRUE(dtlb_record.ties[0].tied);
    EXPECT_EQ(dtlb_record.misses,
              std::vector<std::uint64_t>{0b1100011});

    const MemCell cell{dl0, dtlb, MechanismKind::WayFixed50,
                       MechanismKind::None};
    const MemSimResult joint =
        MemTimingSim(dl0, dtlb, MemTimingParams(), cell.dl0Mechanism,
                     MechanismKind::None, 1.0)
            .run(stream);
    EXPECT_EQ(joint.dtlbMisses, 3u);

    // The guard fires ...
    EXPECT_FALSE(MemTimingSim(dl0, dtlb, MemTimingParams(),
                              cell.dl0Mechanism, MechanismKind::None,
                              1.0)
                     .replay(stream, MemSide::Dl0, dtlb_record));
    // ... where the unguarded replay charges a fourth DTLB miss.
    MissRecord unguarded = dtlb_record;
    unguarded.ties.clear();
    const auto wrong =
        MemTimingSim(dl0, dtlb, MemTimingParams(), cell.dl0Mechanism,
                     MechanismKind::None, 1.0)
            .replay(stream, MemSide::Dl0, unguarded);
    ASSERT_TRUE(wrong);
    EXPECT_EQ(wrong->dtlbMisses, 4u);
    EXPECT_EQ(wrong->cycles, joint.cycles + 30);

    // The driver falls back to the two-cache run.
    const obs::ScopedEnable enable;
    const std::uint64_t fallbacks_before =
        counterValue("memsim.fallbacks");
    const std::vector<MemLossSample> split =
        simulateStreamCells(stream, {cell}, MemTimingParams(), 1.0);
    expectSameBits(split[0], jointSample(stream, cell, 1.0));
    EXPECT_EQ(counterValue("memsim.fallbacks") - fallbacks_before, 1u);
}

TEST(Timing, MechanismNamesExhaustive)
{
    EXPECT_STREQ(mechanismName(MechanismKind::None), "Baseline");
    EXPECT_STREQ(mechanismName(MechanismKind::SetFixed50),
                 "SetFixed50%");
    EXPECT_STREQ(mechanismName(MechanismKind::WayFixed50),
                 "WayFixed50%");
    EXPECT_STREQ(mechanismName(MechanismKind::LineFixed50),
                 "LineFixed50%");
    EXPECT_STREQ(mechanismName(MechanismKind::LineDynamic60),
                 "LineDynamic60%");
}

TEST(Timing, PerfLossNonNegativeOnAverage)
{
    WorkloadSet w;
    const auto traces = w.strided(120);
    const PerfLossStats stats = measurePerfLoss(
        w, traces, 15000, CacheConfig(), CacheConfig::tlb(128, 8),
        MechanismKind::LineFixed50, true);
    EXPECT_GT(stats.traces, 0u);
    EXPECT_GE(stats.meanLoss, 0.0);
    EXPECT_GT(stats.meanInvertRatio, 0.3);
}

TEST(Timing, DynamicLosesLessThanFixed)
{
    // The headline Table-3 ordering.
    WorkloadSet w;
    const auto traces = w.strided(60);
    const PerfLossStats fixed = measurePerfLoss(
        w, traces, 20000, CacheConfig(), CacheConfig::tlb(128, 8),
        MechanismKind::LineFixed50, true);
    const PerfLossStats dynamic = measurePerfLoss(
        w, traces, 20000, CacheConfig(), CacheConfig::tlb(128, 8),
        MechanismKind::LineDynamic60, true);
    EXPECT_LT(dynamic.meanLoss, fixed.meanLoss);
}


// ------------------------------------------------ Kernel identity

/** Exact statistics of one pinned MemTimingSim replay; the MRU
 *  histogram and invert ratio belong to the cache carrying the
 *  mechanism. */
struct PinnedRun
{
    std::uint64_t dl0Hits;
    std::uint64_t dl0Misses;
    std::uint64_t dtlbHits;
    std::uint64_t dtlbMisses;
    std::vector<std::uint64_t> mruHits;
    double avgInvertRatio;
    std::uint64_t dl0Bias;
    std::uint64_t dtlbBias;
};

TEST(Cache, KernelPinned)
{
    // Absolute pins of the cache kernel: every mechanism on five
    // geometries, replaying one stream of workload trace 0.  The
    // values were recorded on the division-per-access, array-of-
    // structs kernel; any change to hits, recency, victim choice,
    // RNG draws or bias accounting moves at least one of them.
    WorkloadSet w;
    TraceGenerator gen = w.generator(0);
    const MemStream stream = MemStream::generate(gen, 30000);

    CacheConfig dl0_small;
    dl0_small.sizeBytes = 8 * 1024;
    dl0_small.ways = 4;
    CacheConfig dl0_plru;
    dl0_plru.replacement = ReplacementPolicy::PseudoLru;
    CacheConfig dl0_random;
    dl0_random.replacement = ReplacementPolicy::Random;
    struct Geometry
    {
        const char *name;
        CacheConfig dl0;
        CacheConfig dtlb;
        bool onDl0;
    };
    const Geometry geometries[] = {
        {"DL0 8-way 32KB", CacheConfig(), CacheConfig::tlb(128, 8),
         true},
        {"DL0 4-way 8KB", dl0_small, CacheConfig::tlb(128, 8), true},
        {"DTLB 32-entry", CacheConfig(), CacheConfig::tlb(32, 8),
         false},
        {"DL0 8-way 32KB pLRU", dl0_plru, CacheConfig::tlb(128, 8),
         true},
        {"DL0 8-way 32KB random", dl0_random,
         CacheConfig::tlb(128, 8), true},
    };
    const MechanismKind kinds[] = {
        MechanismKind::None, MechanismKind::SetFixed50,
        MechanismKind::WayFixed50, MechanismKind::LineFixed50,
        MechanismKind::LineDynamic60};

    // [geometry][mechanism]
    const PinnedRun pinned[5][5] = {
        {// DL0 8-way 32KB
         {10542, 858, 11260, 140, {9395, 401, 235, 140, 104, 103, 95, 69},
          0x0p+0, 0x83f9240934ae5f28ull, 0x1f29a58bf4bdcad6ull},
         {10098, 1302, 11260, 140, {8800, 486, 243, 231, 125, 100, 56, 57},
          0x1.00b52fd5eb53p-1, 0x41fb1aeac4221929ull, 0xb330f5dfcecbc337ull},
         {10156, 1244, 11260, 140, {9397, 396, 235, 128, 0, 0, 0, 0},
          0x1.02522dc147714p-1, 0x0cc2a52562e33109ull, 0x751f851f5040ed9eull},
         {10124, 1276, 11260, 140, {9377, 368, 191, 92, 50, 29, 14, 3},
          0x1.fa13e56fcaa9dp-2, 0x95ebf4ad58d8372aull, 0x5d5480adb0d4807dull},
         {10234, 1166, 11260, 140, {9366, 372, 192, 96, 66, 60, 50, 32},
          0x1.8ba4257dc2389p-2, 0xc76e1d442be5787dull, 0x515a73acdda0e0fdull},
        },
        {// DL0 4-way 8KB
         {9782, 1618, 11260, 140, {8801, 489, 252, 240},
          0x0p+0, 0x8eeec4d99d2d005bull, 0xf32c56a475bc5d32ull},
         {9216, 2184, 11260, 140, {8623, 119, 149, 325},
          0x1.00e625cb2ff33p-1, 0xe55f1ed7b6fbda9aull, 0xc1d06105680ad411ull},
         {9285, 2115, 11260, 140, {8806, 479, 0, 0},
          0x1.039abf5d183e7p-1, 0x8b329b695371690bull, 0x040dd875088c3d55ull},
         {9304, 2096, 11260, 140, {8757, 375, 124, 48},
          0x1.fa1d430e1b602p-2, 0xbbf05063b42c58a9ull, 0x9398adaf32a173dcull},
         {9504, 1896, 11260, 140, {8771, 392, 183, 158},
          0x1.119025bd61dacp-2, 0x40e7c863ae819e1aull, 0x2fa3832049e410adull},
        },
        {// DTLB 32-entry
         {10542, 858, 11066, 334, {10731, 103, 66, 52, 41, 28, 27, 18},
          0x0p+0, 0xd7cb58e3292cc630ull, 0x271629c28652d591ull},
         {10542, 858, 10941, 459, {10650, 70, 69, 39, 41, 27, 32, 13},
          0x1.02af460827f53p-1, 0x86f25ac340c3265full, 0xebe610b093cfedfeull},
         {10542, 858, 10950, 450, {10730, 103, 67, 50, 0, 0, 0, 0},
          0x1.00d4024540245p-1, 0x6c0b265257b2eb5aull, 0x511305b24ec57822ull},
         {10542, 858, 10914, 486, {10716, 89, 49, 29, 13, 8, 8, 2},
          0x1.f2dcb1c62065ep-2, 0x87b676bc7eef6313ull, 0x7e090eabdf7a68a6ull},
         {10542, 858, 10964, 436, {10719, 92, 47, 37, 27, 16, 14, 12},
          0x1.33d9803a15417p-2, 0xdfd127efb73241bcull, 0x88bda560b7dc50ebull},
        },
        {// DL0 8-way 32KB pLRU
         {10523, 877, 11260, 140, {9395, 403, 233, 138, 116, 98, 88, 52},
          0x0p+0, 0x253dec4e9503c857ull, 0x02d6af04c936a40cull},
         {10058, 1342, 11260, 140, {8800, 487, 248, 212, 132, 77, 57, 45},
          0x1.00b7f0f9d9fa1p-1, 0x96a8c1fd08c5537full, 0xb1585029ff29b5f6ull},
         {10131, 1269, 11260, 140, {9396, 383, 219, 133, 0, 0, 0, 0},
          0x1.024b366610343p-1, 0x45c1edecc2c1b65bull, 0xb53f69622f08ac52ull},
         {10134, 1266, 11260, 140, {9378, 372, 198, 91, 46, 32, 13, 4},
          0x1.fa116e1538afep-2, 0xe3d8b655ec328a67ull, 0x24949bc430242743ull},
         {10233, 1167, 11260, 140, {9365, 369, 193, 102, 61, 59, 54, 30},
          0x1.8bb9f18d2c0d4p-2, 0xdd2b5bc1293f16a4ull, 0x458875a97060d1acull},
        },
        {// DL0 8-way 32KB random
         {10514, 886, 11260, 140, {9395, 397, 227, 137, 110, 103, 87, 58},
          0x0p+0, 0x32b4f30113cf4e87ull, 0x53c24f71ee3234aeull},
         {9969, 1431, 11260, 140, {8792, 495, 229, 194, 119, 54, 46, 40},
          0x1.00e04827af6d5p-1, 0x44178dd3d1d86b1full, 0x3459340ba8f4a4e3ull},
         {10083, 1317, 11260, 140, {9396, 366, 191, 130, 0, 0, 0, 0},
          0x1.026c2eddae16ap-1, 0xf66edce45c0a191cull, 0x246698ee44559cd8ull},
         {10115, 1285, 11260, 140, {9376, 367, 195, 88, 45, 27, 15, 2},
          0x1.fa1617a9b96e1p-2, 0x0f8f8f9f993cb037ull, 0x717291d754acc5edull},
         {10216, 1184, 11260, 140, {9364, 369, 184, 97, 67, 61, 46, 28},
          0x1.8ae9e3da4a49p-2, 0x486549c46b21a6c2ull, 0xdfc0c61fe5a2109eull},
        },
    };

    for (std::size_t g = 0; g < 5; ++g) {
        const Geometry &geo = geometries[g];
        for (std::size_t k = 0; k < 5; ++k) {
            SCOPED_TRACE(std::string(geo.name) + " " +
                         mechanismName(kinds[k]));
            MemTimingSim sim(
                geo.dl0, geo.dtlb, MemTimingParams(),
                geo.onDl0 ? kinds[k] : MechanismKind::None,
                geo.onDl0 ? MechanismKind::None : kinds[k], 0.002);
            const MemSimResult r = sim.run(stream);
            const Cycle end = static_cast<Cycle>(r.cycles);
            Cache &mech = geo.onDl0 ? sim.dl0() : sim.dtlb();
            std::vector<std::uint64_t> mru;
            for (std::size_t i = 0;
                 i < mech.mruHitPositions().categories(); ++i)
                mru.push_back(mech.mruHitPositions().count(i));
            const PinnedRun actual{
                r.dl0Hits, r.dl0Misses, r.dtlbHits, r.dtlbMisses, mru,
                mech.averageInvertRatio(end),
                biasDigest(sim.dl0().finalizeDataBias(end)),
                biasDigest(sim.dtlb().finalizeDataBias(end))};
            const PinnedRun &want = pinned[g][k];
            EXPECT_EQ(actual.dl0Hits, want.dl0Hits);
            EXPECT_EQ(actual.dl0Misses, want.dl0Misses);
            EXPECT_EQ(actual.dtlbHits, want.dtlbHits);
            EXPECT_EQ(actual.dtlbMisses, want.dtlbMisses);
            EXPECT_EQ(actual.mruHits, want.mruHits);
            EXPECT_EQ(actual.avgInvertRatio, want.avgInvertRatio);
            EXPECT_EQ(actual.dl0Bias, want.dl0Bias);
            EXPECT_EQ(actual.dtlbBias, want.dtlbBias);
        }
    }
}


/** Parameterised geometry sweep: core invariants must hold for
 *  every (size, ways, replacement, mechanism) combination. */
class CacheGeometry
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, int, int>>
{};

TEST_P(CacheGeometry, InvariantsHold)
{
    CacheConfig cfg;
    cfg.sizeBytes = std::get<0>(GetParam()) * 1024;
    cfg.ways = std::get<1>(GetParam());
    cfg.replacement =
        static_cast<ReplacementPolicy>(std::get<2>(GetParam()));
    const auto mech =
        static_cast<MechanismKind>(std::get<3>(GetParam()));
    Cache c(cfg);
    c.setPolicy(makeMechanism(mech, cfg, false, 0.01));

    Rng rng(cfg.sizeBytes + cfg.ways);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        ++now;
        c.tick(now);
        const Addr addr =
            rng.nextInt(4 * cfg.sizeBytes / 64) * 64;
        c.access(addr, rng.nextBool(0.3), now, rng());

        // Invariants checked continuously:
        ASSERT_LE(c.invertedCount(), c.numLines());
        ASSERT_GE(c.invertRatio(), 0.0);
        ASSERT_LE(c.invertRatio(), 1.0);
    }
    // Accounting identities.
    EXPECT_EQ(c.hits() + c.misses(), 20000u);
    // An inverted line is never valid; recount from scratch.
    unsigned inverted = 0;
    for (unsigned s = 0; s < c.numSets(); ++s) {
        for (unsigned w = 0; w < c.numWays(); ++w) {
            if (c.lineInverted(s, w)) {
                ++inverted;
                EXPECT_FALSE(c.lineValid(s, w));
            }
        }
    }
    EXPECT_EQ(inverted, c.invertedCount());
    const double avg = c.averageInvertRatio(now);
    EXPECT_GE(avg, 0.0);
    EXPECT_LE(avg, 1.0);
    // Hitting the cache again must still work after all churn.
    const Addr probe = 0x40;
    c.access(probe, false, ++now);
    EXPECT_TRUE(c.access(probe, false, ++now).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Combine(
        ::testing::Values(4u, 8u, 32u),     // KB
        ::testing::Values(2u, 4u, 8u),      // ways
        ::testing::Values(0, 1, 2),         // LRU/pLRU/random
        ::testing::Values(0, 1, 2, 3, 4))); // mechanisms

} // namespace
} // namespace penelope

