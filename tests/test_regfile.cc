/**
 * @file
 * Tests for the register file: allocation lifecycle, occupancy and
 * bias accounting, the RINV/ISV mechanism and the replay driver.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "regfile/driver.hh"
#include "regfile/regfile.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

RegFileConfig
smallRf()
{
    RegFileConfig cfg;
    cfg.numEntries = 8;
    cfg.width = 16;
    return cfg;
}

TEST(RegFile, AllocateReleaseCycle)
{
    RegisterFile rf(smallRf());
    const int a = rf.allocate(1);
    ASSERT_GE(a, 0);
    EXPECT_TRUE(rf.isBusy(a));
    EXPECT_EQ(rf.busyCount(), 1u);
    rf.release(a, 5, true);
    EXPECT_FALSE(rf.isBusy(a));
    EXPECT_EQ(rf.busyCount(), 0u);
}

TEST(RegFile, ExhaustsFreeList)
{
    RegisterFile rf(smallRf());
    for (int i = 0; i < 8; ++i)
        EXPECT_GE(rf.allocate(1), 0);
    EXPECT_EQ(rf.allocate(1), -1);
}

TEST(RegFile, FifoRotation)
{
    // Entries must rotate evenly (FIFO free list), the property
    // that makes register tags self-balanced.
    RegisterFile rf(smallRf());
    const int first = rf.allocate(1);
    rf.release(first, 2, true);
    // Allocate the remaining 7 entries, then the recycled one.
    std::vector<int> got;
    for (int i = 0; i < 8; ++i)
        got.push_back(rf.allocate(3));
    // 'first' must come back last, not immediately.
    EXPECT_EQ(got.back(), first);
}

TEST(RegFile, OccupancyTimeWeighted)
{
    RegisterFile rf(smallRf());
    const int a = rf.allocate(0);
    rf.release(a, 50, true);
    // One of eight entries busy for 50 of 100 cycles.
    EXPECT_NEAR(rf.occupancy(100), 50.0 / (8 * 100), 1e-9);
}

TEST(RegFile, BiasTracksStoredValues)
{
    RegisterFile rf(smallRf());
    const int a = rf.allocate(0);
    rf.write(static_cast<unsigned>(a), Word(0xffff), 0);
    const BitBiasTracker &bias = rf.finalizeBias(10);
    // Entry a held ones for 10 cycles; others held zeros.
    EXPECT_DOUBLE_EQ(bias.zeroProbability(0), 7.0 / 8.0);
}

TEST(RegFile, RinvSamplesInvertedWrites)
{
    RegFileConfig cfg = smallRf();
    cfg.rinvSampleInterval = 1; // sample every write
    RegisterFile rf(cfg);
    const int a = rf.allocate(0);
    rf.write(static_cast<unsigned>(a), Word(0x00ff), 1);
    EXPECT_EQ(rf.rinv().lo(), 0xff00u);
}

TEST(RegFile, IsvWritesRinvAtRelease)
{
    RegFileConfig cfg = smallRf();
    cfg.rinvSampleInterval = 1;
    RegisterFile rf(cfg);
    rf.enableIsv(true);
    const int a = rf.allocate(0);
    rf.write(static_cast<unsigned>(a), Word(0x000f), 1);
    rf.release(static_cast<unsigned>(a), 2, true);
    EXPECT_EQ(rf.isvStats().updatesApplied, 1u);
    // The entry now holds the inverted sample; bias over the idle
    // period reflects it.
    const BitBiasTracker &bias = rf.finalizeBias(12);
    // Bit 0 over all 8 entries x 12 cycles: entry a spends one
    // cycle at 1 (busy value 0x000f) and the rest at 0; the seven
    // untouched entries hold zeros throughout.
    EXPECT_NEAR(bias.zeroProbability(0), 95.0 / 96.0, 1e-9);
}

TEST(RegFile, IsvDiscardedWithoutPort)
{
    RegisterFile rf(smallRf());
    rf.enableIsv(true);
    const int a = rf.allocate(0);
    rf.write(static_cast<unsigned>(a), Word(1), 1);
    rf.release(static_cast<unsigned>(a), 2, false);
    EXPECT_EQ(rf.isvStats().updatesDiscarded, 1u);
    EXPECT_EQ(rf.isvStats().updatesApplied, 0u);
}

TEST(RegFile, IsvMeterThrottlesAtBalance)
{
    // Once inverted residence leads, updates are skipped so entries
    // hold inverted contents ~50% of overall time.
    RegFileConfig cfg = smallRf();
    cfg.numEntries = 2;
    RegisterFile rf(cfg);
    rf.enableIsv(true);
    Cycle now = 0;
    std::uint64_t applied_then_skipped = 0;
    for (int round = 0; round < 200; ++round) {
        const int e = rf.allocate(now);
        ASSERT_GE(e, 0);
        rf.write(static_cast<unsigned>(e), Word(0), now);
        now += 1; // short busy
        rf.release(static_cast<unsigned>(e), now, true);
        now += 9; // long idle
    }
    applied_then_skipped = rf.isvStats().updatesSkipped;
    EXPECT_GT(applied_then_skipped, 0u);
    EXPECT_GT(rf.isvStats().updatesApplied, 0u);
}

TEST(RegFile, IsvBalancesBiasedStream)
{
    // The headline Figure-6 property on a synthetic biased stream.
    RegFileConfig cfg;
    cfg.numEntries = 32;
    cfg.width = 16;
    RegisterFile rf(cfg);
    rf.enableIsv(true);
    Rng rng(5);
    Cycle now = 0;
    std::vector<int> live;
    for (int i = 0; i < 20000; ++i) {
        ++now;
        const int e = rf.allocate(now);
        if (e >= 0) {
            // Heavily biased program values: mostly zero.
            rf.write(static_cast<unsigned>(e),
                     Word(rng.nextBool(0.9) ? 0x0001 : 0xffff),
                     now);
            live.push_back(e);
        }
        if (live.size() > 12) {
            rf.release(static_cast<unsigned>(live.front()), now,
                       rng.nextBool(0.92));
            live.erase(live.begin());
        }
    }
    const BitBiasTracker &bias = rf.finalizeBias(now);
    EXPECT_LT(bias.maxWorstCaseStress(), 0.62);
}

TEST(RegFile, BaselineStaysBiased)
{
    // Without ISV the same stream leaves cells heavily biased.
    RegFileConfig cfg;
    cfg.numEntries = 32;
    cfg.width = 16;
    RegisterFile rf(cfg);
    Rng rng(5);
    Cycle now = 0;
    std::vector<int> live;
    for (int i = 0; i < 20000; ++i) {
        ++now;
        const int e = rf.allocate(now);
        if (e >= 0) {
            rf.write(static_cast<unsigned>(e),
                     Word(rng.nextBool(0.9) ? 0x0001 : 0xffff),
                     now);
            live.push_back(e);
        }
        if (live.size() > 12) {
            rf.release(static_cast<unsigned>(live.front()), now,
                       true);
            live.erase(live.begin());
        }
    }
    const BitBiasTracker &bias = rf.finalizeBias(now);
    EXPECT_GT(bias.maxWorstCaseStress(), 0.8);
}

// ---------------------------------------------------------- Driver

TEST(RegReplay, RunsAndReportsOccupancy)
{
    WorkloadSet w;
    RegFileConfig cfg;
    cfg.numEntries = 128;
    cfg.width = 32;
    RegisterFile rf(cfg);
    RegFileReplay replay(rf, RegReplayConfig{});
    TraceGenerator gen = w.generator(0);
    const RegReplayResult r = replay.run(gen, 20000);
    EXPECT_EQ(r.cycles, 20000u);
    EXPECT_GT(r.writes, 5000u);
    EXPECT_GT(r.occupancy, 0.2);
    EXPECT_LT(r.occupancy, 0.9);
}

TEST(RegReplay, ClockPersistsAcrossRuns)
{
    WorkloadSet w;
    RegisterFile rf{RegFileConfig()};
    RegFileReplay replay(rf, RegReplayConfig{});
    TraceGenerator gen = w.generator(1);
    const RegReplayResult r1 = replay.run(gen, 5000);
    const RegReplayResult r2 = replay.run(gen, 5000);
    EXPECT_EQ(r1.cycles, 5000u);
    EXPECT_EQ(r2.cycles, 10000u);
}

TEST(RegReplay, FpModeUsesFpUopsOnly)
{
    WorkloadSet w;
    RegFileConfig cfg;
    cfg.numEntries = 64;
    cfg.width = 80;
    RegisterFile rf(cfg);
    RegReplayConfig rc;
    rc.fp = true;
    RegFileReplay replay(rf, rc);
    // SpecFP suite trace: plenty of FP writes.
    const auto fp_traces = w.indicesForSuite(SuiteId::SpecFp2000);
    TraceGenerator gen = w.generator(fp_traces.front());
    const RegReplayResult r = replay.run(gen, 20000);
    EXPECT_GT(r.writes, 1000u);
    EXPECT_LT(r.occupancy, 1.0);
}

TEST(RegReplay, IsvImprovesWorstStress)
{
    WorkloadSet w;
    auto run = [&](bool isv) {
        RegFileConfig cfg;
        cfg.numEntries = 128;
        cfg.width = 32;
        RegisterFile rf(cfg);
        rf.enableIsv(isv);
        RegFileReplay replay(rf, RegReplayConfig{});
        TraceGenerator gen = w.generator(2);
        const RegReplayResult r = replay.run(gen, 40000);
        return rf.finalizeBias(r.cycles).maxWorstCaseStress();
    };
    const double baseline = run(false);
    const double isv = run(true);
    EXPECT_GT(baseline, 0.75);
    EXPECT_LT(isv, 0.62);
}

// -------------------------------------------------------- Lockstep

void
expectSameBias(const BitBiasTracker &a, const BitBiasTracker &b)
{
    ASSERT_EQ(a.width(), b.width());
    EXPECT_EQ(a.totalTime(), b.totalTime());
    for (unsigned bit = 0; bit < a.width(); ++bit)
        EXPECT_EQ(a.zeroTime(bit), b.zeroTime(bit)) << "bit " << bit;
}

void
expectSameIsv(const IsvStats &a, const IsvStats &b)
{
    EXPECT_EQ(a.updatesApplied, b.updatesApplied);
    EXPECT_EQ(a.updatesDiscarded, b.updatesDiscarded);
    EXPECT_EQ(a.updatesSkipped, b.updatesSkipped);
}

void
expectSameReplay(const RegReplayResult &a, const RegReplayResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.releases, b.releases);
    EXPECT_EQ(a.forcedReleases, b.forcedReleases);
    EXPECT_EQ(a.occupancy, b.occupancy);
    EXPECT_EQ(a.freeFraction, b.freeFraction);
}

/**
 * ISV-off and ISV-on files replayed in lockstep must each end
 * exactly as a solo replay with the same seed does: over two run()
 * calls, and through replayRegFileArms.
 */
void
expectLockstepMatchesSolo(bool fp, unsigned trace)
{
    const WorkloadSet w;
    RegFileConfig cfg;
    cfg.numEntries = fp ? 64 : 128;
    cfg.width = fp ? 80 : 32;
    RegReplayConfig rc;
    rc.fp = fp;
    rc.commitDelay = fp ? 110 : 64;
    rc.seed = mixSeed(rc.seed, trace);
    const std::size_t runs[] = {12000, 8000};

    RegisterFile baseline(cfg);
    RegisterFile isv(cfg);
    isv.enableIsv(true);
    RegisterFile *const lockstep[] = {&baseline, &isv};
    RegFileReplay replay({lockstep[0], lockstep[1]}, rc);
    TraceGenerator gen = w.generator(trace);
    std::vector<RegReplayResult> results;
    for (const std::size_t n : runs)
        results.push_back(replay.run(gen, n));

    TraceGenerator arms_gen = w.generator(trace);
    const auto arms =
        replayRegFileArms(arms_gen, runs[0], cfg, rc, {false, true});
    ASSERT_EQ(arms.size(), 2u);

    for (const bool on : {false, true}) {
        SCOPED_TRACE(on ? "ISV" : "baseline");
        for (std::size_t calls = 1; calls <= 2; ++calls) {
            RegisterFile rf(cfg);
            rf.enableIsv(on);
            RegFileReplay solo(rf, rc);
            TraceGenerator solo_gen = w.generator(trace);
            RegReplayResult r;
            for (std::size_t k = 0; k < calls; ++k)
                r = solo.run(solo_gen, runs[k]);
            const BitBiasTracker &bias = rf.finalizeBias(r.cycles);
            if (calls == 2) {
                expectSameReplay(r, results[1]);
                expectSameBias(
                    bias, lockstep[on]->finalizeBias(r.cycles));
                expectSameIsv(rf.isvStats(), lockstep[on]->isvStats());
            } else {
                expectSameBias(bias, arms[on].bias);
                EXPECT_EQ(r.freeFraction, arms[on].freeFraction);
                expectSameIsv(rf.isvStats(), arms[on].isv);
            }
        }
    }
    EXPECT_GT(isv.isvStats().updatesApplied, 0u);
}

TEST(RegLockstep, IntArmsMatchSoloReplays)
{
    expectLockstepMatchesSolo(false, 5);
}

TEST(RegLockstep, FpArmsMatchSoloReplays)
{
    const WorkloadSet w;
    expectLockstepMatchesSolo(
        true, w.indicesForSuite(SuiteId::SpecFp2000).front());
}

TEST(RegLockstep, MismatchedOrDivergedFileThrows)
{
    RegFileConfig wide;
    wide.width = 64;
    RegisterFile a{RegFileConfig()};
    RegisterFile b{wide};
    EXPECT_THROW(RegFileReplay({&a, &b}, RegReplayConfig{}),
                 std::invalid_argument);
    RegFileConfig fewer;
    fewer.numEntries = 96;
    RegisterFile c{fewer};
    EXPECT_THROW(RegFileReplay({&a, &c}, RegReplayConfig{}),
                 std::invalid_argument);

    // Same geometry, but one entry already taken: the replay's first
    // lockstep allocation diverges, in every build type.
    RegisterFile d{RegFileConfig()};
    ASSERT_GE(d.allocate(0), 0);
    RegisterFile e{RegFileConfig()};
    EXPECT_THROW(RegFileReplay({&e, &d}, RegReplayConfig{}),
                 std::logic_error);
}

} // namespace
} // namespace penelope
