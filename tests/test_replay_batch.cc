/**
 * @file
 * Replay accounting suites.
 *
 * The scheduler charges slot images to byte histograms and folds
 * them into per-bit counters when read.  Its unprotected replays are
 * checked bit for bit against OracleReplay, a field-level reference
 * accountant with its own event loop: across workload traces, a
 * 64-entry scheduler, mid-run reads and snapshot merge order, and
 * against the same scalar counters over hand-driven gaps past 2^33
 * cycles.  Protected and ISV replays write repair values the oracle
 * does not model; their exact accounting is pinned by digest,
 * including hand-made decisions on the fields that straddle layout
 * words.
 *
 * The register file and the cache charge their bias trackers on
 * every value change.  Their suites pin the exact per-bit zero
 * times, total time and replay statistics of fixed seeded replays,
 * so any change in what they accumulate shows as a changed number.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
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

// ------------------------------------------------------- scheduler

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

/**
 * What the reference accountant sums: one scalar counter per layout
 * bit over all slot time and over in-use time, each field's in-use
 * time, and the busy slot-cycles behind the occupancy integral.
 */
struct OracleStress
{
    Cycle cycles = 0;
    std::uint64_t busyTime = 0;
    std::vector<DutyCycleCounter> total =
        std::vector<DutyCycleCounter>(fieldLayout().totalBits());
    std::vector<DutyCycleCounter> busy =
        std::vector<DutyCycleCounter>(fieldLayout().totalBits());
    std::vector<std::uint64_t> fieldUse =
        std::vector<std::uint64_t>(numFields, 0);

    void
    merge(const OracleStress &other)
    {
        cycles += other.cycles;
        busyTime += other.busyTime;
        for (std::size_t b = 0; b < total.size(); ++b) {
            total[b].merge(other.total[b]);
            busy[b].merge(other.busy[b]);
        }
        for (unsigned f = 0; f < numFields; ++f)
            fieldUse[f] += other.fieldUse[f];
    }
};

/** One slot as the reference accountant mirrors it, field by field. */
struct OracleSlot
{
    bool busy = false;
    std::uint32_t used = 0; ///< bit f: field f holds live data
    std::vector<BitWord> value;
    Cycle since = 0;
    Cycle releaseAt = 0; ///< 0 = free

    OracleSlot()
    {
        for (unsigned f = 0; f < numFields; ++f)
            value.emplace_back(fieldLayout().spec(f).width);
    }

    /** Charge the residence since the last event up to @p now. */
    void
    charge(OracleStress &stress, Cycle now)
    {
        const std::uint64_t dt = now - since;
        since = now;
        if (busy)
            stress.busyTime += dt;
        for (unsigned f = 0; f < numFields; ++f) {
            const FieldSpec &spec = fieldLayout().spec(f);
            const bool live = (used >> f) & 1;
            if (live)
                stress.fieldUse[f] += dt;
            for (unsigned b = 0; b < spec.width; ++b) {
                const bool level = value[f].bit(b);
                stress.total[spec.offset + b].observe(level, dt);
                if (live)
                    stress.busy[spec.offset + b].observe(level, dt);
            }
        }
    }

    /** Occupy the slot with @p uop's live fields. */
    void
    allocate(const Uop &uop, const RenameTags &tags)
    {
        busy = true;
        used = 0;
        for (unsigned f = 0; f < numFields; ++f) {
            const FieldId id = fieldLayout().spec(f).id;
            if (fieldUsedByUop(id, uop, tags)) {
                used |= std::uint32_t(1) << f;
                value[f] = fieldValue(id, uop, tags);
            }
        }
    }

    /** Free the slot: only the valid bit changes. */
    void
    release()
    {
        busy = false;
        used = 0;
        value[static_cast<unsigned>(FieldId::Valid)] = BitWord(1, 0);
        releaseAt = 0;
    }
};

/**
 * Field-level reference accountant for an unprotected scheduler.
 *
 * Its own event loop makes the replay driver's draws in the driver's
 * order (rename tags and a residence per allocation, a port bit per
 * release) but finds due releases by scanning every slot, and drives
 * the scheduler only through allocate() and release().  It mirrors
 * each slot's fields with fieldUsedByUop/fieldValue and charges the
 * elapsed residence to scalar per-bit counters on every event.  It
 * knows nothing of the packed layout or the byte histograms.
 */
class OracleReplay
{
  public:
    OracleReplay(Scheduler &sched, const SchedReplayConfig &config)
        : sched_(sched),
          config_(config),
          residence_(1.0 / config.meanResidence),
          rng_(config.seed),
          slots_(sched.numEntries())
    {
    }

    SchedReplayResult
    run(TraceGenerator &gen, std::size_t num_uops)
    {
        SchedReplayResult result;
        std::optional<Uop> pending;
        std::size_t consumed = 0;
        while (consumed < num_uops) {
            for (unsigned e = 0; e < slots_.size(); ++e) {
                if (slots_[e].releaseAt != 0 &&
                    slots_[e].releaseAt <= now_) {
                    release(e);
                    ++result.released;
                }
            }
            arrival_ += config_.arrivalRate;
            bool stalled = false;
            while (arrival_ >= 1.0 && consumed < num_uops) {
                const Uop uop = pending ? *pending : gen.next();
                pending.reset();
                if (!allocate(uop)) {
                    pending = uop;
                    stalled = true;
                    break;
                }
                arrival_ -= 1.0;
                ++consumed;
                ++result.allocated;
            }
            if (stalled) {
                ++result.stallCycles;
                arrival_ = std::min(arrival_, 4.0);
            }
            ++now_;
        }
        for (unsigned e = 0; e < slots_.size(); ++e) {
            if (slots_[e].releaseAt != 0) {
                now_ = std::max(now_, slots_[e].releaseAt);
                release(e);
                ++result.released;
            }
        }
        result.cycles = now_;
        result.occupancy = sched_.occupancy(now_);
        return result;
    }

    /** Charge every slot up to the current cycle and return the
     *  sums (what Scheduler::snapshotStress reports then). */
    OracleStress
    snapshot()
    {
        for (OracleSlot &slot : slots_)
            slot.charge(stress_, now_);
        stress_.cycles = now_;
        return stress_;
    }

  private:
    bool
    allocate(const Uop &uop)
    {
        RenameTags tags;
        tags.dstTag = tag_;
        tag_ = (tag_ + 1) & 0x7f;
        tags.src1Tag = static_cast<std::uint8_t>(
            (tag_ + 17 + uop.srcReg1) & 0x7f);
        tags.src2Tag = static_cast<std::uint8_t>(
            (tag_ + 43 + uop.srcReg2) & 0x7f);
        tags.ready1 = !uop.usesSrc1() || rng_.nextBool(0.65);
        tags.ready2 = !uop.usesSrc2() || rng_.nextBool(0.55);
        const int entry = sched_.allocate(uop, tags, now_);
        if (entry < 0)
            return false;
        OracleSlot &slot = slots_[static_cast<unsigned>(entry)];
        EXPECT_FALSE(slot.busy) << "entry " << entry;
        slot.charge(stress_, now_);
        slot.allocate(uop, tags);
        slot.releaseAt = now_ + 1 + residence_(rng_);
        return true;
    }

    void
    release(unsigned entry)
    {
        sched_.release(entry, now_,
                       rng_.nextBool(config_.portFreeProb));
        OracleSlot &slot = slots_[entry];
        slot.charge(stress_, now_);
        slot.release();
    }

    Scheduler &sched_;
    SchedReplayConfig config_;
    GeometricDist residence_;
    Rng rng_;
    std::vector<OracleSlot> slots_;
    OracleStress stress_;
    std::uint8_t tag_ = 0;
    Cycle now_ = 0;
    double arrival_ = 0.0;
};

/** Per-bit zero times of @p spec's bits in @p counters. */
std::vector<std::uint64_t>
oracleZeros(const std::vector<DutyCycleCounter> &counters,
            const FieldSpec &spec)
{
    std::vector<std::uint64_t> out;
    for (unsigned b = 0; b < spec.width; ++b)
        out.push_back(counters[spec.offset + b].zeroTime());
    return out;
}

std::vector<std::uint64_t>
zeroTimes(const BitBiasTracker &t)
{
    std::vector<std::uint64_t> out;
    for (unsigned b = 0; b < t.width(); ++b)
        out.push_back(t.zeroTime(b));
    return out;
}

/** Exact equality of a scheduler snapshot with the oracle's sums. */
void
expectMatchesOracle(const SchedulerStress &s, const OracleStress &o)
{
    const FieldLayout &layout = fieldLayout();
    EXPECT_EQ(s.cycles, o.cycles);
    EXPECT_EQ(s.busyIntegral, static_cast<double>(o.busyTime));
    ASSERT_EQ(s.totalBias.size(), layout.count());
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        SCOPED_TRACE(spec.name);
        EXPECT_EQ(s.fieldUseTime[f], o.fieldUse[f]);
        EXPECT_EQ(s.totalBias[f].totalTime(),
                  o.total[spec.offset].totalTime());
        EXPECT_EQ(zeroTimes(s.totalBias[f]), oracleZeros(o.total, spec));
        EXPECT_EQ(s.busyBias[f].totalTime(),
                  o.busy[spec.offset].totalTime());
        EXPECT_EQ(zeroTimes(s.busyBias[f]), oracleZeros(o.busy, spec));
    }
}

/** The oracle's sums and the SchedulerReplay-driven snapshot. */
struct OracleRun
{
    OracleStress sums;
    SchedulerStress stress;
};

/** One unprotected replay of workload trace @p trace, run by the
 *  oracle and by SchedulerReplay on a second scheduler; both
 *  snapshots must equal the oracle's sums. */
OracleRun
checkAgainstOracle(unsigned trace, std::size_t num_uops,
                   const SchedulerConfig &sched_config = {},
                   const SchedReplayConfig &replay_config = {})
{
    SCOPED_TRACE(testing::Message() << "trace " << trace << ", "
                                    << num_uops << " uops, "
                                    << sched_config.numEntries
                                    << " entries");
    WorkloadSet w;
    Scheduler by_oracle(sched_config);
    Scheduler by_replay(sched_config);
    OracleReplay oracle(by_oracle, replay_config);
    SchedulerReplay replay(by_replay, replay_config);
    TraceGenerator go = w.generator(trace);
    TraceGenerator gr = w.generator(trace);
    const SchedReplayResult ro = oracle.run(go, num_uops);
    const SchedReplayResult rr = replay.run(gr, num_uops);
    expectResultsEqual(ro, rr);
    OracleRun run{oracle.snapshot(),
                  by_replay.snapshotStress(rr.cycles)};
    expectMatchesOracle(by_oracle.snapshotStress(ro.cycles), run.sums);
    expectMatchesOracle(run.stress, run.sums);
    return run;
}

TEST(SchedulerReplayBatch, RandomTracesMatchOracle)
{
    // Short and multi-thousand-uop replays.
    const std::size_t counts[] = {63, 64, 777, 4096, 5001};
    unsigned trace = 0;
    for (const std::size_t uops : counts) {
        checkAgainstOracle(trace, uops);
        trace = (trace + 1) % 4;
    }
    // The largest geometry: every entry index, up to the top bit of
    // the replay driver's release masks, is used.  Long residences
    // keep the scheduler full for much of the run.
    SchedulerConfig widest;
    widest.numEntries = 64;
    SchedReplayConfig crowded;
    crowded.arrivalRate = 4.0;
    crowded.meanResidence = 24.0;
    checkAgainstOracle(2, 5001, widest, crowded);
}

TEST(SchedulerReplayBatch, MidRunReadsMatchOracle)
{
    // A mid-run snapshotStress() flushes every entry and folds the
    // byte histograms.  It must see the oracle's sums, and must
    // leave the rest of the run unchanged.
    WorkloadSet w;
    Scheduler by_oracle{SchedulerConfig{}};
    Scheduler by_replay{SchedulerConfig{}};
    OracleReplay oracle(by_oracle, SchedReplayConfig{});
    SchedulerReplay replay(by_replay, SchedReplayConfig{});
    TraceGenerator go = w.generator(1);
    TraceGenerator gr = w.generator(1);

    for (int leg = 0; leg < 3; ++leg) {
        SCOPED_TRACE(testing::Message() << "leg " << leg);
        const SchedReplayResult ro = oracle.run(go, 997);
        const SchedReplayResult rr = replay.run(gr, 997);
        expectResultsEqual(ro, rr);
        const OracleStress sums = oracle.snapshot();
        expectMatchesOracle(by_oracle.snapshotStress(ro.cycles), sums);
        expectMatchesOracle(by_replay.snapshotStress(rr.cycles), sums);
    }
    const SchedReplayResult ro = oracle.run(go, 100);
    const SchedReplayResult rr = replay.run(gr, 100);
    expectResultsEqual(ro, rr);
    expectMatchesOracle(by_replay.snapshotStress(rr.cycles),
                        oracle.snapshot());
}

TEST(SchedulerReplayBatch, MergeOrderMatchesOracle)
{
    // Snapshots of different traces must merge, in either order,
    // to the oracle's merged sums (merge() adds integers, and the
    // sharded engine merges in trace order whatever the workers).
    const OracleRun a = checkAgainstOracle(0, 1500);
    const OracleRun b = checkAgainstOracle(1, 2111);
    OracleStress want = a.sums;
    want.merge(b.sums);

    SchedulerStress ab = a.stress;
    ab.merge(b.stress);
    SchedulerStress ba = b.stress;
    ba.merge(a.stress);
    expectMatchesOracle(ab, want);
    expectMatchesOracle(ba, want);
}

TEST(SchedulerReplayBatch, LongGapsMatchScalarCounters)
{
    // Hand-driven allocations and releases more than 2^33 cycles
    // apart push every per-bit total past 2^32: the snapshot must
    // still equal the scalar per-bit counters exactly, mid-run and
    // at the end.
    constexpr Cycle kGap = (Cycle(1) << 33) + 12345;
    SchedulerConfig config;
    config.numEntries = 4;
    Scheduler sched(config);
    std::vector<OracleSlot> slots(config.numEntries);
    OracleStress want;
    WorkloadSet w;
    TraceGenerator gen = w.generator(3);
    Rng rng(0x10a6);
    Cycle now = 0;
    const auto check = [&] {
        for (OracleSlot &slot : slots)
            slot.charge(want, now);
        want.cycles = now;
        expectMatchesOracle(sched.snapshotStress(now), want);
    };
    for (int step = 0; step < 48; ++step) {
        now += kGap + rng.nextInt(1000);
        const bool release = sched.busyCount() == config.numEntries ||
            (sched.busyCount() != 0 && rng.nextBool(0.45));
        if (release) {
            unsigned e = static_cast<unsigned>(
                rng.nextInt(config.numEntries));
            while (!slots[e].busy)
                e = (e + 1) % config.numEntries;
            sched.release(e, now, true);
            slots[e].charge(want, now);
            slots[e].release();
        } else {
            const Uop uop = gen.next();
            RenameTags tags;
            tags.dstTag = static_cast<std::uint8_t>(step);
            tags.src1Tag = static_cast<std::uint8_t>(3 * step);
            tags.src2Tag = static_cast<std::uint8_t>(5 * step);
            tags.ready1 = !uop.usesSrc1() || rng.nextBool(0.5);
            tags.ready2 = !uop.usesSrc2() || rng.nextBool(0.5);
            const int e = sched.allocate(uop, tags, now);
            ASSERT_GE(e, 0);
            OracleSlot &slot = slots[static_cast<unsigned>(e)];
            slot.charge(want, now);
            slot.allocate(uop, tags);
        }
        if (step == 20)
            check();
    }
    check();
    EXPECT_GT(want.total[0].totalTime(), std::uint64_t(1) << 38);
    EXPECT_GT(want.busy[0].totalTime(), std::uint64_t(1) << 36);
}

/** FNV-1a over a snapshot's integer state (and the bit pattern of
 *  its occupancy integral): everything its statistics derive from. */
std::uint64_t
stressDigest(const SchedulerStress &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(s.cycles);
    mix(std::bit_cast<std::uint64_t>(s.busyIntegral));
    for (std::size_t f = 0; f < s.totalBias.size(); ++f) {
        mix(s.fieldUseTime[f]);
        for (const BitBiasTracker *t : {&s.totalBias[f], &s.busyBias[f]}) {
            mix(t->totalTime());
            for (unsigned b = 0; b < t->width(); ++b)
                mix(t->zeroTime(b));
        }
    }
    return h;
}

/** A pinned protected replay leg: its result and snapshot digest. */
struct SchedPin
{
    std::size_t uops;
    Cycle cycles;
    std::uint64_t allocated, released, stallCycles;
    std::uint64_t digest;
};

TEST(SchedulerReplayBatch, ProtectionAndIsvOnPinned)
{
    // Protection writes repair values (ALL1/ALL0, K% duty bits and
    // ISV samples from RINV) at release and into unused fields, so
    // the oracle cannot follow it.  These integers were recorded
    // while an immediate per-event accounting path still existed
    // and matched the batched one on these exact replays.
    struct Case
    {
        unsigned trace;
        SchedulerConfig sched;
        std::vector<SchedPin> legs; ///< one run() + snapshot each
        /** Hand-made decisions; empty = profile the trace. */
        std::vector<BitDecision> decisions = {};
    };
    SchedulerConfig fast_isv;
    fast_isv.isvSampleInterval = 1;
    SchedulerConfig small; // fills up: stalls and back-to-back reuse
    small.numEntries = 8;
    SchedulerConfig widest;
    widest.numEntries = 64;
    // ALL1, ALL1-K%, ISV, ALL0-K%, ALL0 and kept bits interleaved on
    // Src1Data (straddles words 0/1), Imm (words 1/2) and Opcode:
    // whole-image repair across word boundaries, and the K% draw
    // order across fields.
    std::vector<BitDecision> straddling(fieldLayout().totalBits());
    const Technique kinds[6] = {
        Technique::All1, Technique::All1K, Technique::Isv,
        Technique::All0K, Technique::All0, Technique::None,
    };
    for (const FieldId id :
         {FieldId::Src1Data, FieldId::Imm, FieldId::Opcode}) {
        const FieldSpec &spec = fieldLayout().spec(id);
        for (unsigned b = 0; b < spec.width; ++b) {
            BitDecision &d = straddling[spec.offset + b];
            d.technique = kinds[(b + spec.offset) % 6];
            d.k = (b % 4 + 1) * 0.2;
        }
    }
    const std::vector<Case> cases = {
        {2, SchedulerConfig{},
         {{3000, 1223, 3000, 3000, 0, 0x6ed93694875563fdull}}},
        {1, SchedulerConfig{},
         {{997, 416, 997, 997, 0, 0xaac34b8d10bf0552ull},
          {997, 836, 997, 997, 0, 0x4a8c31217950fd6bull},
          {997, 1257, 997, 997, 0, 0x40977e9063e3fcd9ull},
          {100, 1322, 100, 100, 0, 0xc126e07f53297a44ull}}},
        {3, fast_isv,
         {{4096, 1661, 4096, 4096, 0, 0x8993a49164d6c367ull},
          {1, 1673, 1, 1, 0, 0xed7ca686faec00ecull}}},
        {0, small, {{2000, 2046, 2000, 2000, 2029, 0x7cced0344bac1cccull}}},
        {1, widest,
         {{3000, 1234, 3000, 3000, 0, 0x54003deadb876983ull},
          {777, 1562, 777, 777, 0, 0xf68ce29fa9b67516ull}},
         straddling},
    };
    WorkloadSet w;
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << "trace " << c.trace);
        const std::vector<BitDecision> decisions =
            c.decisions.empty()
                ? decideProtection(
                      profileScheduler(w, {c.trace}, 4000).bits)
                : c.decisions;
        ASSERT_TRUE(std::any_of(
            decisions.begin(), decisions.end(),
            [](const BitDecision &d) {
                return d.technique == Technique::Isv;
            }));
        Scheduler sched(c.sched);
        sched.configureProtection(decisions);
        sched.enableProtection(true);
        SchedulerReplay replay(sched, SchedReplayConfig{});
        TraceGenerator gen = w.generator(c.trace);
        for (const SchedPin &pin : c.legs) {
            const SchedReplayResult r = replay.run(gen, pin.uops);
            EXPECT_EQ(r.cycles, pin.cycles);
            EXPECT_EQ(r.allocated, pin.allocated);
            EXPECT_EQ(r.released, pin.released);
            EXPECT_EQ(r.stallCycles, pin.stallCycles);
            EXPECT_EQ(stressDigest(sched.snapshotStress(r.cycles)),
                      pin.digest);
        }
    }
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
