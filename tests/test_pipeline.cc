/**
 * @file
 * Integration tests for the out-of-order pipeline model and the
 * experiment runners built on it.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "pipeline/pipeline.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

TEST(Pipeline, RunsToCompletion)
{
    WorkloadSet w;
    Pipeline pipe{PipelineConfig()};
    TraceGenerator gen = w.generator(0);
    const PipelineStats s = pipe.run(gen, 10000);
    EXPECT_EQ(s.uops, 10000u);
    EXPECT_GT(s.cycles, 2000u);
    EXPECT_GT(s.cpi, 0.3);
    EXPECT_LT(s.cpi, 6.0);
}

TEST(Pipeline, StatsInPhysicalRange)
{
    WorkloadSet w;
    Pipeline pipe{PipelineConfig()};
    TraceGenerator gen = w.generator(20);
    const PipelineStats s = pipe.run(gen, 15000);
    for (double u : s.adderUtilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    EXPECT_GT(s.intRfOccupancy, 0.1);
    EXPECT_LT(s.intRfOccupancy, 1.0);
    EXPECT_GT(s.schedOccupancy, 0.0);
    EXPECT_LE(s.schedOccupancy, 1.0);
    EXPECT_GT(s.intRfPortFree, 0.5);
    EXPECT_GT(s.dl0Hits + s.dl0Misses, 1000u);
    EXPECT_NEAR(s.mruHitFraction[0] + s.mruHitFraction[1] +
                    s.mruHitFraction[2],
                1.0, 1e-6);
}

TEST(Pipeline, PriorityPolicySkewsAdders)
{
    WorkloadSet w;
    PipelineConfig pri;
    pri.adderPolicy = AdderAllocationPolicy::Priority;
    Pipeline p1(pri);
    TraceGenerator g1 = w.generator(0);
    const PipelineStats s1 = p1.run(g1, 20000);

    PipelineConfig uni;
    uni.adderPolicy = AdderAllocationPolicy::Uniform;
    Pipeline p2(uni);
    TraceGenerator g2 = w.generator(0);
    const PipelineStats s2 = p2.run(g2, 20000);

    // Priority: port 0 does far more IntAlu work than port 1.
    EXPECT_GT(s1.adderUtilization[0],
              2.0 * s1.adderUtilization[1]);
    // Uniform: the two integer adders are balanced.
    EXPECT_NEAR(s2.adderUtilization[0], s2.adderUtilization[1],
                0.03);
}

TEST(Pipeline, CacheMechanismCostsCycles)
{
    WorkloadSet w;
    // A Server-suite trace with a large working set.
    const auto server = w.indicesForSuite(SuiteId::Server);
    PipelineConfig base;
    Pipeline p1(base);
    TraceGenerator g1 = w.generator(server[1]);
    const PipelineStats s1 = p1.run(g1, 20000);

    PipelineConfig mech = base;
    mech.dl0Mechanism = MechanismKind::SetFixed50;
    Pipeline p2(mech);
    TraceGenerator g2 = w.generator(server[1]);
    const PipelineStats s2 = p2.run(g2, 20000);

    EXPECT_GE(s2.dl0Misses, s1.dl0Misses);
    EXPECT_GE(s2.cycles, s1.cycles * 0.99);
}

TEST(Pipeline, IsvProtectionBalancesRegisterFile)
{
    WorkloadSet w;
    PipelineConfig cfg;
    cfg.intRfIsv = true;
    cfg.fpRfIsv = true;
    Pipeline pipe(cfg);
    TraceGenerator gen = w.generator(4);
    const PipelineStats s = pipe.run(gen, 30000);
    const BitBiasTracker &bias =
        pipe.intRf().finalizeBias(s.cycles);
    EXPECT_LT(bias.maxWorstCaseStress(), 0.75);
}

TEST(Pipeline, SchedulerProtectionInPipeline)
{
    WorkloadSet w;
    const SchedulerProfile profile =
        profileScheduler(w, {0, 200}, 10000);
    PipelineConfig cfg;
    Pipeline pipe(cfg);
    pipe.configureSchedulerProtection(
        decideProtection(profile.bits));
    TraceGenerator gen = w.generator(30);
    const PipelineStats s = pipe.run(gen, 20000);
    EXPECT_TRUE(pipe.scheduler().protectionEnabled());
    EXPECT_GT(s.cycles, 0u);
}

/** FNV-1a over the bit patterns of a bias vector. */
std::uint64_t
biasDigest(const std::vector<double> &bias)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (double v : bias) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(Pipeline, StatsPinned)
{
    // Absolute pins of the core model: every PipelineStats field
    // plus a digest of the scheduler bias, for an integer, an FP
    // and a server trace under both adder policies.  The values
    // were recorded on the port-major issue loop (one ROB scan per
    // port); issue order, scheduler release order and the DTLB/DL0
    // access order all move at least one of them.
    WorkloadSet w;
    const auto fp = w.indicesForSuite(SuiteId::SpecFp2000);
    const auto server = w.indicesForSuite(SuiteId::Server);
    struct Pinned
    {
        unsigned trace;
        AdderAllocationPolicy policy;
        Cycle cycles;
        double adderUtilization[4];
        double intRfOccupancy, fpRfOccupancy, schedOccupancy;
        double intRfPortFree, fpRfPortFree, schedPortFree;
        std::uint64_t dl0Hits, dl0Misses, dtlbMisses;
        double mruHitFraction[3];
        double cpi;
        std::uint64_t schedBias;
    };
    const Pinned pinned[] = {
        {0, AdderAllocationPolicy::Priority, 10455,
         {0x1.74166dd7fd741p-2, 0x1.b8befd6dd1b8cp-4,
          0x1.3326a9c901332p-2, 0x1.1d362ff1811d3p-3},
         0x1.06dff2adff2aep-1, 0x1.6d8bfc60474d9p-3, 0x1.ede29165b09dep-1,
         0x1.ad767f2dc1958p-1, 0x1.93d1c13d1c13dp-1, 0x1p+0,
         4147, 445, 89,
         {0x1.d27137204917p-1, 0x1.3429bafbfcca4p-5, 0x1.a4c2d2ff71c56p-5},
         0x1.be147ae147ae1p-1, 0xefb5f53920b1aa8eull},
        {0, AdderAllocationPolicy::Uniform, 10691,
         {0x1.d7a0cb0e88eb7p-3, 0x1.d7a0cb0e88eb7p-3,
          0x1.2c5eeb620e6a4p-2, 0x1.16ea6cdb0d62bp-3},
         0x1.059e103c26999p-1, 0x1.6c76ac5bdabdbp-3, 0x1.f094450ef7429p-1,
         0x1.b1dccd8d05ddcp-1, 0x1.97f2c97f2c97fp-1, 0x1p+0,
         4147, 445, 89,
         {0x1.d27137204917p-1, 0x1.3429bafbfcca4p-5, 0x1.a4c2d2ff71c56p-5},
         0x1.c8263ab596de9p-1, 0xb2724d5c53c4fa60ull},
        {fp[2], AdderAllocationPolicy::Priority, 11761,
         {0x1.530a61fe903a3p-3, 0x1.0e41ddd3770bp-5,
          0x1.3a503b8ddac75p-2, 0x1.ed7f8831fa093p-4},
         0x1.0cd4b4aa37816p-1, 0x1.124892196151dp-1, 0x1.8f8a48eb41956p-1,
         0x1.a086bfd025268p-1, 0x1.8b5588ea8a6d7p-1, 0x1p+0,
         3932, 1095, 295,
         {0x1.ed1e785140d8bp-1, 0x1.7703e80a6ac67p-7, 0x1.a0af01d2af872p-6},
         0x1.f5cd7b900aec3p-1, 0xa7e6ae9bd287f057ull},
        {fp[2], AdderAllocationPolicy::Uniform, 11820,
         {0x1.94bfa1be5512dp-4, 0x1.9466eb77d02dcp-4,
          0x1.38be979b81842p-2, 0x1.eb08ec5597de1p-4},
         0x1.0d3667c93f808p-1, 0x1.12885c2d65461p-1, 0x1.8f20240a0ca6p-1,
         0x1.a22de31d295c8p-1, 0x1.89f959c427e56p-1, 0x1p+0,
         3932, 1095, 295,
         {0x1.ed1e785140d8bp-1, 0x1.7703e80a6ac67p-7, 0x1.a0af01d2af872p-6},
         0x1.f851eb851eb85p-1, 0x707c2eee96ea7ea0ull},
        {server[1], AdderAllocationPolicy::Priority, 21384,
         {0x1.55244c3c2528ep-3, 0x1.2c57ba47102f8p-5,
          0x1.7088614e0dfbap-3, 0x1.73fb0513711b8p-4},
         0x1.0bddb6a36350fp-1, 0x1.0913711b7c99ap-3, 0x1.f58a9536afa59p-1,
         0x1.ded86c266a50ap-1, 0x1.c9882b9310572p-1, 0x1p+0,
         4677, 1113, 581,
         {0x1.e3357a1daab8bp-1, 0x1.53ccfc7131a54p-6, 0x1.22c1dfecbba28p-5},
         0x1.c83126e978d5p+0, 0x77b36313560d697dull},
        {server[1], AdderAllocationPolicy::Uniform, 21505,
         {0x1.9de2b11c5e237p-4, 0x1.9de2b11c5e237p-4,
          0x1.6e758aca89c78p-3, 0x1.71e3373327029p-4},
         0x1.0b77b87ac1961p-1, 0x1.0913b393320eap-3, 0x1.f6360573be9f4p-1,
         0x1.e0fc83651d8bap-1, 0x1.bea3677d46cfp-1, 0x1p+0,
         4677, 1113, 581,
         {0x1.e35180771afc2p-1, 0x1.504c314329375p-6, 0x1.22c1dfecbba28p-5},
         0x1.cac5f92c5f92cp+0, 0xf98152e3b9843969ull},
    };
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(testing::Message()
                     << "trace " << p.trace << " policy "
                     << static_cast<int>(p.policy));
        PipelineConfig cfg;
        cfg.adderPolicy = p.policy;
        Pipeline pipe(cfg);
        TraceGenerator gen = w.generator(p.trace);
        const PipelineStats s = pipe.run(gen, 12000);
        EXPECT_EQ(s.cycles, p.cycles);
        EXPECT_EQ(s.uops, 12000u);
        for (unsigned a = 0; a < 4; ++a)
            EXPECT_EQ(s.adderUtilization[a], p.adderUtilization[a]);
        EXPECT_EQ(s.intRfOccupancy, p.intRfOccupancy);
        EXPECT_EQ(s.fpRfOccupancy, p.fpRfOccupancy);
        EXPECT_EQ(s.schedOccupancy, p.schedOccupancy);
        EXPECT_EQ(s.intRfPortFree, p.intRfPortFree);
        EXPECT_EQ(s.fpRfPortFree, p.fpRfPortFree);
        EXPECT_EQ(s.schedPortFree, p.schedPortFree);
        EXPECT_EQ(s.dl0Hits, p.dl0Hits);
        EXPECT_EQ(s.dl0Misses, p.dl0Misses);
        EXPECT_EQ(s.dtlbMisses, p.dtlbMisses);
        for (unsigned m = 0; m < 3; ++m)
            EXPECT_EQ(s.mruHitFraction[m], p.mruHitFraction[m]);
        EXPECT_EQ(s.cpi, p.cpi);
        EXPECT_EQ(biasDigest(pipe.scheduler().biasVector(s.cycles)),
                  p.schedBias);
    }
}

// --------------------------------------------------- Experiments

TEST(Experiments, AdderEndToEnd)
{
    WorkloadSet w;
    ExperimentOptions opt;
    opt.traceStride = 96;
    opt.uopsPerTrace = 8000;
    opt.adderOperandSamples = 600;
    const auto r = runAdderExperiment(w, opt);
    EXPECT_EQ(r.pairSweep.size(), 28u);
    EXPECT_GT(r.baselineGuardband, 0.12);
    ASSERT_EQ(r.scenarios.size(), 3u);
    // Figure-5 ordering: 30% > 21% > 11% utilisation guardbands.
    EXPECT_GT(r.scenarios[0].guardband, r.scenarios[1].guardband);
    EXPECT_GT(r.scenarios[1].guardband, r.scenarios[2].guardband);
    EXPECT_LT(r.scenarios[0].guardband, r.baselineGuardband);
    EXPECT_GT(r.efficiency, 1.0);
    EXPECT_LT(r.efficiency, nbtiEfficiency(1.0, 0.20, 1.0));
}

TEST(Experiments, RegFileEndToEnd)
{
    WorkloadSet w;
    ExperimentOptions opt;
    opt.traceStride = 64;
    opt.uopsPerTrace = 15000;
    const auto r = runRegFileExperiment(w, false, opt);
    EXPECT_EQ(r.baselineBias.size(), 32u);
    EXPECT_EQ(r.isvBias.size(), 32u);
    EXPECT_GT(r.baselineWorst, 0.75);
    EXPECT_LT(r.isvWorst, 0.60);
    EXPECT_LT(r.guardbandIsv, r.guardbandBaseline);
    EXPECT_NEAR(r.freeFraction, 0.54, 0.12);
}

TEST(Experiments, SchedulerEndToEnd)
{
    WorkloadSet w;
    ExperimentOptions opt;
    opt.traceStride = 96;
    opt.uopsPerTrace = 10000;
    const auto r = runSchedulerExperiment(w, opt);
    EXPECT_EQ(r.baselineBias.size(), fieldLayout().totalBits());
    EXPECT_GT(r.baselineWorstFig8, 0.9);
    // Paper: 63.2% residual (ALL1 bits + valid bit).
    EXPECT_NEAR(r.protectedWorstFig8, 0.632, 0.06);
    EXPECT_NEAR(r.occupancy, 0.63, 0.08);
    EXPECT_LT(r.guardband, 0.09);
}

TEST(Experiments, ProcessorSummaryOrdering)
{
    WorkloadSet w;
    ExperimentOptions opt;
    opt.traceStride = 96;
    opt.uopsPerTrace = 8000;
    opt.cacheUops = 15000;
    opt.adderOperandSamples = 600;
    const auto adder = runAdderExperiment(w, opt);
    const auto int_rf = runRegFileExperiment(w, false, opt);
    const auto fp_rf = runRegFileExperiment(w, true, opt);
    const auto sched = runSchedulerExperiment(w, opt);
    const auto summary = buildProcessorSummary(
        adder, int_rf, fp_rf, sched, w, opt);

    EXPECT_EQ(summary.blocks.size(), 5u);
    EXPECT_NEAR(summary.baselineEfficiency, 1.728, 1e-3);
    EXPECT_NEAR(summary.invertEfficiency, 1.413, 1e-3);
    // Penelope beats paying the full guardband.
    EXPECT_LT(summary.penelopeEfficiencyDynamic,
              summary.baselineEfficiency);
    // With the best cache mechanism it also beats inverting.
    EXPECT_LT(summary.penelopeEfficiencyDynamic,
              summary.invertEfficiency);
    EXPECT_GT(summary.maxGuardband, 0.04);
    EXPECT_LT(summary.maxGuardband, 0.10);
}

} // namespace
} // namespace penelope
