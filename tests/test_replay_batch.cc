/**
 * @file
 * Replay accounting suites.
 *
 * The scheduler accumulates slot images into 64-record batches and
 * folds them with one transposed drain; its scalar path charges the
 * accumulators on every event.  Both paths add the identical modular
 * integers in a different order, so every derived statistic -- and
 * the RNG draw stream, since the trackers feed no mid-run decision --
 * must match bit for bit across random workload traces, protection
 * and ISV on and off, partial final batches, mid-run reader folds,
 * mid-run mode toggles, and snapshot merge interleavings.
 *
 * The register file and the cache charge their bias trackers on
 * every value change.  Their suites pin the exact per-bit zero
 * times, total time and replay statistics of fixed seeded replays,
 * so any change in what they accumulate shows as a changed number.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "regfile/driver.hh"
#include "regfile/regfile.hh"
#include "scheduler/driver.hh"
#include "scheduler/profile.hh"
#include "scheduler/scheduler.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ------------------------------------------------------ comparators

/** Exact per-bit integer equality of two bias trackers. */
void
expectTrackersEqual(const BitBiasTracker &a, const BitBiasTracker &b)
{
    ASSERT_EQ(a.width(), b.width());
    EXPECT_EQ(a.totalTime(), b.totalTime());
    for (unsigned bit = 0; bit < a.width(); ++bit)
        EXPECT_EQ(a.zeroTime(bit), b.zeroTime(bit)) << "bit " << bit;
}

void
expectStressEqual(const SchedulerStress &a, const SchedulerStress &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busyIntegral, b.busyIntegral);
    ASSERT_EQ(a.totalBias.size(), b.totalBias.size());
    ASSERT_EQ(a.fieldUseTime, b.fieldUseTime);
    for (std::size_t f = 0; f < a.totalBias.size(); ++f) {
        expectTrackersEqual(a.totalBias[f], b.totalBias[f]);
        expectTrackersEqual(a.busyBias[f], b.busyBias[f]);
    }
}

void
expectResultsEqual(const SchedReplayResult &a,
                   const SchedReplayResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.allocated, b.allocated);
    EXPECT_EQ(a.released, b.released);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.occupancy, b.occupancy);
}

// ------------------------------------------------------- scheduler

/** Replay @p num_uops of workload trace @p trace against a fresh
 *  scheduler in the requested accounting mode and snapshot it. */
SchedulerStress
runScheduler(bool batched, unsigned trace, std::size_t num_uops,
             bool protect, SchedReplayResult *result = nullptr)
{
    WorkloadSet w;
    Scheduler sched{SchedulerConfig{}};
    sched.setBatchedAccounting(batched);
    if (protect) {
        const SchedulerProfile profile =
            profileScheduler(w, {trace}, 4000);
        sched.configureProtection(decideProtection(profile.bits));
        sched.enableProtection(true);
    }
    SchedulerReplay replay(sched, SchedReplayConfig{});
    TraceGenerator gen = w.generator(trace);
    const SchedReplayResult r = replay.run(gen, num_uops);
    if (result)
        *result = r;
    return sched.snapshotStress(r.cycles);
}

TEST(SchedulerReplayBatch, RandomTracesMatchScalar)
{
    // Uop counts straddle batch boundaries (partial final batches,
    // exactly-full batches, multi-batch runs).
    const std::size_t counts[] = {63, 64, 777, 4096, 5001};
    unsigned trace = 0;
    for (const std::size_t uops : counts) {
        SchedReplayResult rb, rs;
        const SchedulerStress batched =
            runScheduler(true, trace, uops, false, &rb);
        const SchedulerStress scalar =
            runScheduler(false, trace, uops, false, &rs);
        expectResultsEqual(rb, rs);
        expectStressEqual(batched, scalar);
        trace = (trace + 1) % 4;
    }
}

TEST(SchedulerReplayBatch, ProtectionAndIsvOnMatchScalar)
{
    // Protection exercises the repair/ISV write paths, whose
    // decision stream (and RNG draws) must be batching-independent.
    SchedReplayResult rb, rs;
    const SchedulerStress batched =
        runScheduler(true, 2, 3000, true, &rb);
    const SchedulerStress scalar =
        runScheduler(false, 2, 3000, true, &rs);
    expectResultsEqual(rb, rs);
    expectStressEqual(batched, scalar);
}

TEST(SchedulerReplayBatch, MidRunReadsFoldPendingBatch)
{
    // Mid-run statistic reads force a fold of the pending batch
    // (including deferred releases); the values read and the final
    // state must both match the scalar path.
    WorkloadSet w;
    Scheduler batched{SchedulerConfig{}};
    Scheduler scalar{SchedulerConfig{}};
    scalar.setBatchedAccounting(false);
    SchedulerReplay rb(batched, SchedReplayConfig{});
    SchedulerReplay rs(scalar, SchedReplayConfig{});
    TraceGenerator gb = w.generator(1);
    TraceGenerator gs = w.generator(1);

    for (int leg = 0; leg < 3; ++leg) {
        const SchedReplayResult b = rb.run(gb, 997);
        const SchedReplayResult s = rs.run(gs, 997);
        expectResultsEqual(b, s);
        EXPECT_EQ(batched.occupancy(b.cycles),
                  scalar.occupancy(s.cycles));
        EXPECT_EQ(batched.fieldOccupancy(FieldId::Src1Data, b.cycles),
                  scalar.fieldOccupancy(FieldId::Src1Data, s.cycles));
        EXPECT_EQ(batched.biasVector(b.cycles),
                  scalar.biasVector(s.cycles));
    }
    expectStressEqual(batched.snapshotStress(rb.run(gb, 100).cycles),
                      scalar.snapshotStress(rs.run(gs, 100).cycles));
}

TEST(SchedulerReplayBatch, MidRunToggleDrainsAndMatches)
{
    // Flipping the accounting mode mid-run drains the pending batch
    // and must leave no trace in the statistics.
    WorkloadSet w;
    Scheduler toggled{SchedulerConfig{}};
    Scheduler scalar{SchedulerConfig{}};
    scalar.setBatchedAccounting(false);
    SchedulerReplay rt(toggled, SchedReplayConfig{});
    SchedulerReplay rs(scalar, SchedReplayConfig{});
    TraceGenerator gt = w.generator(3);
    TraceGenerator gs = w.generator(3);

    Cycle t_end = 0, s_end = 0;
    bool mode = true;
    for (int leg = 0; leg < 4; ++leg) {
        toggled.setBatchedAccounting(mode);
        mode = !mode;
        t_end = rt.run(gt, 511).cycles;
        s_end = rs.run(gs, 511).cycles;
    }
    expectStressEqual(toggled.snapshotStress(t_end),
                      scalar.snapshotStress(s_end));
}

TEST(SchedulerReplayBatch, MergeOrderInterleavings)
{
    // Snapshots from batched and scalar runs of different traces
    // must merge to the same aggregate in either interleaving
    // (mixed-mode merging is what the sharded experiment engine
    // does when workers disagree only in accounting mode).
    const SchedulerStress a_b = runScheduler(true, 0, 1500, false);
    const SchedulerStress a_s = runScheduler(false, 0, 1500, false);
    const SchedulerStress b_b = runScheduler(true, 1, 2111, false);
    const SchedulerStress b_s = runScheduler(false, 1, 2111, false);

    SchedulerStress m1 = a_b;
    m1.merge(b_s);
    SchedulerStress m2 = a_s;
    m2.merge(b_b);
    expectStressEqual(m1, m2);

    SchedulerStress m3 = b_b;
    m3.merge(a_b);
    // merge() sums commutative integers, so even the reversed
    // interleaving agrees.
    expectStressEqual(m3, m1);
}

// -------------------------------------------------------- regfile

RegFileConfig
fpConfig()
{
    RegFileConfig cfg;
    cfg.name = "FP-RF";
    cfg.numEntries = 64;
    cfg.width = 80; // > 64: exercises the hi value word
    return cfg;
}

/** Finalized statistics of one register-file replay. */
struct RegRunOut
{
    IsvStats isv;
    double occupancy = 0.0;
    std::uint64_t totalTime = 0;
    std::vector<std::uint64_t> zeroTimes;
};

/** A pinned replay: uop count, ISV on/off and its exact result. */
struct RegPin
{
    std::size_t uops;
    bool isv;
    RegRunOut expect;
};

RegRunOut
runRegFile(const RegFileConfig &cfg, const RegReplayConfig &rcfg,
           bool isv, unsigned trace, std::size_t num_uops)
{
    WorkloadSet w;
    RegisterFile rf(cfg);
    rf.enableIsv(isv);
    RegFileReplay replay(rf, rcfg);
    TraceGenerator gen = w.generator(trace);
    const RegReplayResult r = replay.run(gen, num_uops);
    const BitBiasTracker &bias = rf.finalizeBias(r.cycles);
    RegRunOut out;
    out.isv = rf.isvStats();
    out.occupancy = r.occupancy;
    out.totalTime = bias.totalTime();
    for (unsigned bit = 0; bit < bias.width(); ++bit)
        out.zeroTimes.push_back(bias.zeroTime(bit));
    return out;
}

void
expectRegPins(const RegFileConfig &cfg, const RegReplayConfig &rcfg,
              unsigned trace, const std::vector<RegPin> &pins)
{
    for (const RegPin &pin : pins) {
        SCOPED_TRACE(testing::Message() << pin.uops << " uops, isv "
                                        << pin.isv);
        const RegRunOut got =
            runRegFile(cfg, rcfg, pin.isv, trace, pin.uops);
        const RegRunOut &want = pin.expect;
        EXPECT_EQ(got.isv.updatesApplied, want.isv.updatesApplied);
        EXPECT_EQ(got.isv.updatesDiscarded, want.isv.updatesDiscarded);
        EXPECT_EQ(got.isv.updatesSkipped, want.isv.updatesSkipped);
        EXPECT_EQ(got.occupancy, want.occupancy);
        EXPECT_EQ(got.totalTime, want.totalTime);
        EXPECT_EQ(got.zeroTimes, want.zeroTimes);
    }
}

TEST(RegFileReplayBatch, IntTracesMatchScalar)
{
    // Short and multi-thousand-uop replays, ISV off and on.
    expectRegPins(RegFileConfig(), RegReplayConfig{}, 1, {
        {100, false, {{0, 0, 0}, 0x1.935c28f5c28f6p-2, 12800,
          {11769, 11527, 11539, 11609, 11738, 11862, 11413, 12159, 12191,
           12387, 12293, 12594, 12510, 12273, 12123, 12242, 12373, 12413,
           12344, 12260, 12351, 12424, 12488, 12363, 12261, 12310, 12365,
           12414, 12519, 12320, 12349, 12262}}},
        {100, true, {{13, 1, 0}, 0x1.935c28f5c28f6p-2, 12800,
          {11796, 11401, 11566, 11613, 11628, 11740, 11303, 12022, 12065,
           12261, 12167, 12457, 12373, 12147, 11997, 12116, 12247, 12287,
           12207, 12134, 12214, 12287, 12351, 12237, 12124, 12173, 12239,
           12277, 12382, 12194, 12223, 12136}}},
        {1000, false, {{0, 0, 0}, 0x1.206a7ef9db22dp-1, 128000,
          {86234, 77582, 79912, 80055, 79105, 84687, 86950, 87261, 90643,
           98166, 100564, 105049, 104882, 100141, 98838, 100469, 96595,
           104207, 98585, 98623, 101106, 99940, 102002, 102481, 101435,
           104459, 97591, 100176, 102203, 100641, 102192, 99552}}},
        {1000, true, {{614, 55, 0}, 0x1.206a7ef9db22dp-1, 128000,
          {78692, 78218, 84051, 75064, 69200, 71043, 66197, 76693, 72758,
           80721, 83241, 82484, 90788, 80920, 76811, 86267, 91310, 78595,
           85319, 81999, 84284, 82210, 83409, 71664, 74551, 94847, 76112,
           84114, 79716, 80777, 80651, 89338}}},
        {4567, false, {{0, 0, 0}, 0x1.24f98dc2e69b8p-1, 584576,
          {364718, 359015, 357959, 359620, 342626, 356169, 366751, 383980,
           419955, 446891, 454605, 466301, 463092, 454500, 453122, 453200,
           454908, 464540, 464700, 456982, 457424, 457964, 464433, 465589,
           462957, 464728, 457440, 461250, 468003, 469991, 469964, 468525}}},
        {4567, true, {{2987, 255, 0}, 0x1.24f98dc2e69b8p-1, 584576,
          {325929, 321727, 319520, 310016, 323711, 329121, 284952, 302179,
           319314, 331326, 344885, 333026, 349045, 347987, 338984, 356414,
           339812, 348662, 344574, 351854, 348049, 346306, 336447, 336948,
           337861, 344574, 332471, 353650, 348965, 341091, 349288, 350369}}},
    });
}

TEST(RegFileReplayBatch, FpWideTracesMatchScalar)
{
    RegReplayConfig rcfg;
    rcfg.fp = true;
    rcfg.portFreeProb = 0.86;
    expectRegPins(fpConfig(), rcfg, 2, {
        {3000, false, {{0, 0, 0}, 0x1.97f258bf258bfp-3, 192000,
          {164246, 160813, 176065, 173131, 169730, 167643, 163882, 166070,
           158525, 163867, 168174, 168250, 148695, 147660, 150418, 152286,
           143047, 149421, 134328, 139890, 137006, 143747, 148749, 144227,
           146610, 147139, 141161, 153727, 147961, 152342, 151836, 141172,
           149091, 136591, 149786, 154992, 146005, 143377, 138708, 151516,
           148190, 141376, 148031, 151983, 144622, 144114, 149492, 139340,
           142029, 143675, 151332, 143505, 156376, 147553, 137701, 125886,
           125683, 111618, 124413, 125550, 115501, 119409, 114867, 43065,
           135709, 125000, 87319, 77942, 102488, 102488, 102488, 102488,
           102488, 102488, 102488, 102488, 102488, 102488, 132577, 178935}}},
        {3000, true, {{114, 14, 48}, 0x1.97f258bf258bfp-3, 192000,
          {128574, 101108, 134099, 131776, 120372, 106502, 119304, 143314,
           139578, 126140, 106401, 142088, 129440, 128353, 113353, 94923,
           125470, 106949, 104443, 101773, 119451, 92521, 109226, 126152,
           130304, 91449, 124771, 95535, 90980, 132795, 93557, 102461,
           107545, 96191, 132086, 120391, 114386, 114106, 98166, 131022,
           90532, 112381, 90969, 94859, 111646, 91641, 131662, 88684,
           127294, 128247, 134394, 107760, 114427, 108573, 109059, 116923,
           97721, 111633, 118099, 82440, 86569, 115416, 115120, 70240,
           90274, 117824, 94932, 86185, 100064, 100064, 100064, 100064,
           100064, 100064, 100064, 100064, 100064, 100064, 90269, 113240}}},
    });
}

// ---------------------------------------------------------- cache

/** Exact totals and per-bit zero times of a finalized tracker. */
void
expectTracker(const BitBiasTracker &got, std::uint64_t total_time,
              const std::vector<std::uint64_t> &zero_times)
{
    ASSERT_EQ(got.width(), zero_times.size());
    EXPECT_EQ(got.totalTime(), total_time);
    for (unsigned bit = 0; bit < got.width(); ++bit)
        EXPECT_EQ(got.zeroTime(bit), zero_times[bit]) << "bit " << bit;
}

TEST(CacheReplayBatch, AccessStreamsMatchScalar)
{
    // Random access streams over a small cache, with enough misses
    // to rotate line images (dt > 1 residencies throughout).
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024;
    cfg.ways = 4;
    Cache cache(cfg);

    Rng rng(0xcac4e);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            static_cast<Addr>(rng.nextInt(1 << 14)) & ~Addr(7);
        const bool is_write = rng.nextBool(0.3);
        const Word data = rng();
        now += 1 + rng.nextInt(3);
        cache.access(addr, is_write, now, data);
    }
    EXPECT_EQ(cache.hits(), 4986u);
    EXPECT_EQ(cache.misses(), 15014u);
    expectTracker(cache.finalizeDataBias(now), 2556800u, {
        1259210, 1278873, 1257555, 1285174, 1278958, 1276931, 1274215,
        1281302, 1297265, 1291789, 1282784, 1273050, 1266135, 1286464,
        1292398, 1280897, 1284155, 1287044, 1283333, 1275631, 1289114,
        1287327, 1291268, 1252773, 1269440, 1289459, 1288827, 1251229,
        1290612, 1272592, 1272752, 1271262, 1273358, 1272004, 1308090,
        1301638, 1269547, 1294840, 1283037, 1269660, 1297762, 1298916,
        1284483, 1277731, 1285000, 1291513, 1285451, 1281784, 1288782,
        1299366, 1295205, 1279829, 1274512, 1268201, 1279049, 1293177,
        1276747, 1258016, 1273885, 1293483, 1273579, 1284216, 1293235,
        1271207
    });
}

TEST(CacheReplayBatch, InvertedLinesMatchScalar)
{
    // Line inversions rewrite images mid-residence; the pre-inversion
    // image must be charged up to the inversion.
    struct Access
    {
        Addr addr;
        bool write;
        Word data;
        Cycle at;
    };
    std::vector<Access> stream;
    Rng gen(0x90ff);
    Cycle t = 0;
    for (int i = 0; i < 8000; ++i) {
        t += 1 + gen.nextInt(2);
        stream.push_back({static_cast<Addr>(gen.nextInt(1 << 13)) &
                              ~Addr(7),
                          gen.nextBool(0.25), gen(), t});
    }
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 1024;
    cfg.ways = 2;
    Cache cache(cfg);
    unsigned inversions = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Access &a = stream[i];
        cache.access(a.addr, a.write, a.at, a.data);
        if ((i & 255) == 255) {const unsigned set =
                static_cast<unsigned>(i / 256) % cache.numSets();
            inversions += cache.invertLruLineOfSet(set, a.at) ? 1u : 0u;
        }
    }
    EXPECT_EQ(inversions, 31u);
    EXPECT_EQ(cache.hits(), 2035u);
    EXPECT_EQ(cache.misses(), 5965u);
    expectTracker(cache.finalizeDataBias(stream.back().at), 384320u, {
        192964, 190725, 193639, 192145, 194838, 190570, 190226, 186787,
        187977, 194521, 197028, 191038, 194061, 190264, 195749, 193832,
        193106, 194154, 190226, 193178, 194497, 196111, 190138, 190265,
        191991, 190472, 190991, 194526, 191237, 196737, 195336, 192450,
        187009, 195818, 193233, 192673, 188731, 190898, 195207, 195707,
        193157, 194953, 191866, 196332, 189051, 196117, 197538, 193732,
        189345, 193600, 193854, 192054, 196047, 191298, 191758, 186231,
        191248, 192689, 194005, 195040, 193835, 200676, 195044, 192755
    });
}

} // namespace
} // namespace penelope
