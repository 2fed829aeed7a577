/**
 * @file
 * Unit and property tests for the common library: RNG, statistics,
 * bit words, duty-cycle counters, table rendering and the
 * `--version` build record.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "common/bitword.hh"
#include "common/buildinfo.hh"
#include "common/duty.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/resultcache.hh"

namespace penelope {
namespace {

// ------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, NextIntRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextInt(17), 17u);
}

TEST(Rng, NextIntCoversRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextInt(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliMeanConverges)
{
    Rng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(19);
    RunningStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.nextGaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.05);
    EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, GeometricMean)
{
    Rng rng(23);
    RunningStats s;
    const GeometricDist geometric(0.125);
    for (int i = 0; i < 20000; ++i)
        s.add(static_cast<double>(geometric(rng)));
    // Mean of failures-before-success = (1-p)/p = 7.
    EXPECT_NEAR(s.mean(), 7.0, 0.3);
}

TEST(Rng, GeometricWithPOneIsZero)
{
    Rng rng(29);
    const GeometricDist certain(1.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(certain(rng), 0u);
    EXPECT_EQ(rng(), Rng(29)()); // and consumes no draws
}

/** FNV-1a over 64-bit words: a compact pin for a long draw stream. */
std::uint64_t
foldDraw(std::uint64_t h, std::uint64_t draw)
{
    return (h ^ draw) * 0x100000001b3ULL;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

TEST(Rng, GeometricStreamPinned)
{
    // The first 100k draws per p from one seed, followed by one raw
    // draw (which pins how many raw draws the stream consumed).  The
    // trace generator (values, run lengths, dependency distances) and
    // the scheduler replay draw from GeometricDist, so every
    // statistic rests on this stream staying put.
    struct Case
    {
        double p;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {1.0 / 24, 0x67dd4a622dd08b83ULL}, {0.5, 0xad1028f9799766f6ULL},
        {0.999, 0xa9b4e623ba0aade3ULL},    {1e-4, 0x1a05b99d28c7f54cULL},
        {1.0, 0xb1f6dbe2385b48e6ULL},
    };
    for (const Case &c : cases) {
        Rng rng(0x6e0);
        const GeometricDist geometric(c.p);
        std::uint64_t h = kFnvBasis;
        for (int i = 0; i < 100000; ++i)
            h = foldDraw(h, geometric(rng));
        EXPECT_EQ(foldDraw(h, rng()), c.digest) << "p = " << c.p;
    }

    // Three p values in rotation, one of them small enough that the
    // stream regularly runs to 48 failures and beyond.
    const GeometricDist rotation[3] = {
        GeometricDist(0.3), GeometricDist(1.0 / 24),
        GeometricDist(0.01)};
    Rng rng(0x6e1);
    std::uint64_t h = kFnvBasis;
    std::uint64_t long_runs = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t g = rotation[i % 3](rng);
        h = foldDraw(h, g);
        long_runs += g >= 48 ? 1 : 0;
    }
    EXPECT_EQ(long_runs, 24955u);
    EXPECT_EQ(foldDraw(h, rng()), 0x1e0daa6b6764fb31ULL);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(31);
    Rng child = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == child())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(37);
    ZipfTable table(64, 1.0);
    std::vector<int> counts(64, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[table.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[1], counts[40]);
}

TEST(Zipf, AllRanksInRange)
{
    Rng rng(41);
    ZipfTable table(10, 0.8);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(table.sample(rng), 10u);
}

// ----------------------------------------------------------- Stats

TEST(RunningStats, Empty)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined)
{
    RunningStats a;
    RunningStats b;
    RunningStats all;
    Rng rng(43);
    for (int i = 0; i < 500; ++i) {
        const double v = rng.nextGaussian() * 3 + 1;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a;
    a.add(3.0);
    RunningStats b;
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 1.0, 10);
    h.add(0.05);
    h.add(0.15);
    h.add(0.95);
    h.add(2.0);  // clamped into last bin
    h.add(-1.0); // clamped into first bin
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.4);
}

TEST(Histogram, Quantile)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
}

TEST(CategoryCounter, FractionsSumToOne)
{
    CategoryCounter c(4);
    c.add(0, 10);
    c.add(1, 20);
    c.add(3, 70);
    double total = 0;
    for (std::size_t i = 0; i < c.categories(); ++i)
        total += c.fraction(i);
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(c.fraction(3), 0.7);
}

// --------------------------------------------------------- BitWord

TEST(BitWord, ZeroConstruction)
{
    BitWord w(80);
    EXPECT_EQ(w.width(), 80u);
    EXPECT_EQ(w.popcount(), 0u);
    for (unsigned i = 0; i < 80; ++i)
        EXPECT_FALSE(w.bit(i));
}

TEST(BitWord, MasksToWidth)
{
    BitWord w(8, 0xfff);
    EXPECT_EQ(w.lo(), 0xffu);
    EXPECT_EQ(w.popcount(), 8u);
}

TEST(BitWord, HighBitsAccess)
{
    BitWord w(80, 0, 0x8001);
    EXPECT_TRUE(w.bit(64));
    EXPECT_TRUE(w.bit(79));
    EXPECT_FALSE(w.bit(70));
    EXPECT_FALSE(w.bit(0));
}

TEST(BitWord, SetBit)
{
    BitWord w(128);
    w.setBit(0, true);
    w.setBit(64, true);
    w.setBit(127, true);
    EXPECT_EQ(w.popcount(), 3u);
    w.setBit(64, false);
    EXPECT_EQ(w.popcount(), 2u);
    EXPECT_FALSE(w.bit(64));
}

TEST(BitWord, InvertedIsInvolution)
{
    Rng rng(47);
    for (unsigned width : {1u, 7u, 32u, 64u, 80u, 128u}) {
        BitWord w(width, rng(), rng());
        EXPECT_EQ(w.inverted().inverted(), w);
        EXPECT_EQ(w.popcount() + w.inverted().popcount(), width);
    }
}

TEST(BitWord, InvertedFlipsEveryBit)
{
    BitWord w(80, 0x123456789abcdefULL, 0x55);
    const BitWord inv = w.inverted();
    for (unsigned i = 0; i < 80; ++i)
        EXPECT_NE(w.bit(i), inv.bit(i));
}

TEST(BitWord, ToStringMsbFirst)
{
    BitWord w(4, 0b1010);
    EXPECT_EQ(w.toString(), "1010");
}

// ------------------------------------------------------------ Duty

TEST(DutyCycle, NeverObservedIsHalf)
{
    DutyCycleCounter c;
    EXPECT_DOUBLE_EQ(c.zeroProbability(), 0.5);
}

TEST(DutyCycle, ZeroProbability)
{
    DutyCycleCounter c;
    c.observe(false, 3);
    c.observe(true, 1);
    EXPECT_DOUBLE_EQ(c.zeroProbability(), 0.75);
    EXPECT_DOUBLE_EQ(c.oneProbability(), 0.25);
}

TEST(DutyCycle, WorstCaseStressFolds)
{
    DutyCycleCounter c;
    c.observe(true, 9);
    c.observe(false, 1);
    EXPECT_DOUBLE_EQ(c.zeroProbability(), 0.1);
    EXPECT_DOUBLE_EQ(c.worstCaseStress(), 0.9);
}

TEST(DutyCycle, Merge)
{
    DutyCycleCounter a;
    DutyCycleCounter b;
    a.observe(false, 10);
    b.observe(true, 10);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.zeroProbability(), 0.5);
    EXPECT_EQ(a.totalTime(), 20u);
}

TEST(BitBias, TracksPerBit)
{
    BitBiasTracker t(4);
    t.observe(Word(0b0011), 1);
    t.observe(Word(0b0001), 1);
    EXPECT_DOUBLE_EQ(t.zeroProbability(0), 0.0);
    EXPECT_DOUBLE_EQ(t.zeroProbability(1), 0.5);
    EXPECT_DOUBLE_EQ(t.zeroProbability(2), 1.0);
    EXPECT_DOUBLE_EQ(t.maxZeroProbability(), 1.0);
    EXPECT_DOUBLE_EQ(t.minZeroProbability(), 0.0);
    EXPECT_DOUBLE_EQ(t.maxWorstCaseStress(), 1.0);
}

TEST(BitBias, TimeWeighting)
{
    BitBiasTracker t(1);
    t.observe(Word(1), 3);
    t.observe(Word(0), 1);
    EXPECT_DOUBLE_EQ(t.zeroProbability(0), 0.25);
}

TEST(BitBias, WideValues)
{
    BitBiasTracker t(80);
    BitWord w(80);
    w.setBit(79, true);
    t.observe(w, 1);
    EXPECT_DOUBLE_EQ(t.zeroProbability(79), 0.0);
    EXPECT_DOUBLE_EQ(t.zeroProbability(0), 1.0);
}

TEST(BitBias, MergeAndReset)
{
    BitBiasTracker a(2);
    BitBiasTracker b(2);
    a.observe(Word(0b01), 1);
    b.observe(Word(0b10), 1);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.zeroProbability(0), 0.5);
    EXPECT_DOUBLE_EQ(a.zeroProbability(1), 0.5);
    a.reset();
    EXPECT_DOUBLE_EQ(a.zeroProbability(0), 0.5); // unobserved
    EXPECT_EQ(a.counter(0).totalTime(), 0u);
}

// ----------------------------------------------------------- Table

TEST(TextTable, RendersAllCells)
{
    TextTable t({"a", "bb"});
    t.addRow({"x", "y"});
    t.addSeparator();
    t.addRow({"long-cell", "z"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("long-cell"), std::string::npos);
    EXPECT_NE(out.find("z"), std::string::npos);
    EXPECT_EQ(t.rows(), 3u); // separator counts as a row record
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::pct(0.1234, 1), "12.3%");
    EXPECT_EQ(TextTable::num(1.5, 2), "1.50");
    EXPECT_EQ(TextTable::count(42), "42");
}

TEST(CsvWriter, EscapesSpecials)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.writeRow({"plain", "with,comma", "with\"quote"});
    EXPECT_EQ(os.str(),
              "plain,\"with,comma\",\"with\"\"quote\"\n");
}

// ------------------------------------------------------- BuildInfo

/** `--version` prints this record, and benchmark runs log it with
 *  every measurement: the header, then the result-cache salt. */
TEST(BuildInfo, TextIsHeaderAndCacheSalt)
{
    EXPECT_EQ(buildInfoText(), "penelope_bench\n  cache-salt: " +
                                   std::string(kResultCacheSalt) +
                                   "\n");
}

} // namespace
} // namespace penelope
