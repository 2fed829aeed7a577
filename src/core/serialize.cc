#include "serialize.hh"

namespace penelope {

namespace {

/** Type tags (one per cacheable result type). */
enum ResultTag : std::uint8_t
{
    kTagIsvStats = 0x49,      // 'I'
    kTagBitBias = 0x42,       // 'B'
    kTagSchedStress = 0x53,   // 'S'
    kTagPipelineStats = 0x50, // 'P'
    kTagMemLoss = 0x4d,       // 'M'
    kTagOperands = 0x4f,      // 'O'
};

constexpr std::uint8_t kPayloadVersion = 1;

void
header(ByteWriter &w, ResultTag tag)
{
    w.u8(tag);
    w.u8(kPayloadVersion);
}

bool
checkHeader(ByteReader &r, ResultTag tag)
{
    if (r.u8() != tag || r.u8() != kPayloadVersion) {
        r.fail();
        return false;
    }
    return r.ok();
}

/** Upper bound on serialized vector lengths; anything larger is a
 *  corrupt length field, not a real result. */
constexpr std::uint32_t kMaxElements = 1u << 20;

} // namespace

// ----------------------------------------------------------- IsvStats

void
encodeResult(ByteWriter &w, const IsvStats &v)
{
    header(w, kTagIsvStats);
    w.u64(v.updatesApplied);
    w.u64(v.updatesDiscarded);
    w.u64(v.updatesSkipped);
}

bool
decodeResult(ByteReader &r, IsvStats &v)
{
    if (!checkHeader(r, kTagIsvStats))
        return false;
    v.updatesApplied = r.u64();
    v.updatesDiscarded = r.u64();
    v.updatesSkipped = r.u64();
    return r.ok();
}

// ----------------------------------------------------- BitBiasTracker

void
encodeResult(ByteWriter &w, const BitBiasTracker &v)
{
    header(w, kTagBitBias);
    w.u32(v.width());
    w.u64(v.totalTime());
    for (unsigned bit = 0; bit < v.width(); ++bit)
        w.u64(v.zeroTime(bit));
}

bool
decodeResult(ByteReader &r, BitBiasTracker &v)
{
    if (!checkHeader(r, kTagBitBias))
        return false;
    const std::uint32_t width = r.u32();
    const std::uint64_t total = r.u64();
    if (!r.ok() || width == 0 ||
        width > BitBiasTracker::kMaxWidth) {
        r.fail();
        return false;
    }
    std::vector<std::uint64_t> zeros(width);
    for (std::uint32_t bit = 0; bit < width; ++bit) {
        zeros[bit] = r.u64();
        if (zeros[bit] > total) {
            r.fail();
            return false;
        }
    }
    if (!r.ok())
        return false;
    v = BitBiasTracker::fromTimes(width, zeros.data(), total);
    return true;
}

// ---------------------------------------------------- SchedulerStress

void
encodeResult(ByteWriter &w, const RegFileArm &v)
{
    encodeResult(w, v.bias);
    w.f64(v.freeFraction);
    encodeResult(w, v.isv);
}

bool
decodeResult(ByteReader &r, RegFileArm &v)
{
    if (!decodeResult(r, v.bias))
        return false;
    v.freeFraction = r.f64();
    return r.ok() && decodeResult(r, v.isv);
}

void
encodeResult(ByteWriter &w, const SchedulerStress &v)
{
    header(w, kTagSchedStress);
    w.u32(v.numEntries);
    w.u64(v.cycles);
    w.f64(v.busyIntegral);
    w.u32(static_cast<std::uint32_t>(v.totalBias.size()));
    for (std::size_t f = 0; f < v.totalBias.size(); ++f) {
        encodeResult(w, v.totalBias[f]);
        encodeResult(w, v.busyBias[f]);
        w.u64(v.fieldUseTime[f]);
    }
}

bool
decodeResult(ByteReader &r, SchedulerStress &v)
{
    if (!checkHeader(r, kTagSchedStress))
        return false;
    SchedulerStress s;
    s.numEntries = r.u32();
    s.cycles = r.u64();
    s.busyIntegral = r.f64();
    const std::uint32_t fields = r.u32();
    if (!r.ok() || fields > 256) {
        r.fail();
        return false;
    }
    s.totalBias.reserve(fields);
    s.busyBias.reserve(fields);
    s.fieldUseTime.reserve(fields);
    for (std::uint32_t f = 0; f < fields; ++f) {
        BitBiasTracker total(1);
        BitBiasTracker busy(1);
        if (!decodeResult(r, total) || !decodeResult(r, busy))
            return false;
        if (total.width() != busy.width()) {
            r.fail();
            return false;
        }
        s.totalBias.push_back(std::move(total));
        s.busyBias.push_back(std::move(busy));
        s.fieldUseTime.push_back(r.u64());
    }
    if (!r.ok())
        return false;
    v = std::move(s);
    return true;
}

// ------------------------------------------------------ PipelineStats

void
encodeResult(ByteWriter &w, const PipelineStats &v)
{
    header(w, kTagPipelineStats);
    w.u64(v.cycles);
    w.u64(v.uops);
    w.f64(v.cpi);
    for (double u : v.adderUtilization)
        w.f64(u);
    w.f64(v.intRfOccupancy);
    w.f64(v.fpRfOccupancy);
    w.f64(v.schedOccupancy);
    w.f64(v.intRfPortFree);
    w.f64(v.fpRfPortFree);
    w.f64(v.schedPortFree);
    w.u64(v.dl0Hits);
    w.u64(v.dl0Misses);
    w.u64(v.dtlbMisses);
    for (double m : v.mruHitFraction)
        w.f64(m);
}

bool
decodeResult(ByteReader &r, PipelineStats &v)
{
    if (!checkHeader(r, kTagPipelineStats))
        return false;
    PipelineStats s;
    s.cycles = r.u64();
    s.uops = r.u64();
    s.cpi = r.f64();
    for (double &u : s.adderUtilization)
        u = r.f64();
    s.intRfOccupancy = r.f64();
    s.fpRfOccupancy = r.f64();
    s.schedOccupancy = r.f64();
    s.intRfPortFree = r.f64();
    s.fpRfPortFree = r.f64();
    s.schedPortFree = r.f64();
    s.dl0Hits = r.u64();
    s.dl0Misses = r.u64();
    s.dtlbMisses = r.u64();
    for (double &m : s.mruHitFraction)
        m = r.f64();
    if (!r.ok())
        return false;
    v = s;
    return true;
}

// ------------------------------------------------------ MemLossSample

void
encodeResult(ByteWriter &w, const MemLossSample &v)
{
    header(w, kTagMemLoss);
    w.f64(v.loss);
    w.f64(v.normalizedCycles);
    w.f64(v.dl0InvertRatio);
    w.f64(v.dtlbInvertRatio);
}

bool
decodeResult(ByteReader &r, MemLossSample &v)
{
    if (!checkHeader(r, kTagMemLoss))
        return false;
    MemLossSample s;
    s.loss = r.f64();
    s.normalizedCycles = r.f64();
    s.dl0InvertRatio = r.f64();
    s.dtlbInvertRatio = r.f64();
    if (!r.ok())
        return false;
    v = s;
    return true;
}

// ---------------------------------------------------- OperandSample[]

void
encodeResult(ByteWriter &w, const std::vector<OperandSample> &v)
{
    header(w, kTagOperands);
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const OperandSample &s : v) {
        w.u32(s.a);
        w.u32(s.b);
        w.u8(s.cin ? 1 : 0);
    }
}

bool
decodeResult(ByteReader &r, std::vector<OperandSample> &v)
{
    if (!checkHeader(r, kTagOperands))
        return false;
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > kMaxElements) {
        r.fail();
        return false;
    }
    std::vector<OperandSample> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        OperandSample s;
        s.a = r.u32();
        s.b = r.u32();
        const std::uint8_t cin = r.u8();
        if (cin > 1) {
            r.fail();
            return false;
        }
        s.cin = cin != 0;
        out.push_back(s);
    }
    if (!r.ok())
        return false;
    v = std::move(out);
    return true;
}

// ------------------------------------------------------ key material

void
keyCacheConfig(CacheKeyBuilder &key, const CacheConfig &config)
{
    key.u32(config.sizeBytes)
        .u32(config.ways)
        .u32(config.lineBytes)
        .u32(static_cast<std::uint32_t>(config.replacement))
        .f64(config.writePortFreeProb);
}

void
keySchedulerConfig(CacheKeyBuilder &key, const SchedulerConfig &config)
{
    key.u32(config.numEntries).u32(config.isvSampleInterval);
}

void
keySchedReplayConfig(CacheKeyBuilder &key,
                     const SchedReplayConfig &config)
{
    // 0.77 is the retired port-free probability, kept so that keys
    // written while it was a setting still hit.
    key.f64(config.arrivalRate)
        .f64(config.meanResidence)
        .f64(0.77)
        .u64(config.seed);
}

void
keyDecisions(CacheKeyBuilder &key,
             const std::vector<BitDecision> &decisions)
{
    key.u64(decisions.size());
    for (const BitDecision &d : decisions)
        key.u32(static_cast<std::uint32_t>(d.technique)).f64(d.k);
}

void
keyRegFileConfig(CacheKeyBuilder &key, const RegFileConfig &config)
{
    key.u32(config.numEntries)
        .u32(config.width)
        .u32(config.sampledEntry)
        .u32(config.rinvSampleInterval);
}

void
keyRegFileReplay(CacheKeyBuilder &key, const RegFileConfig &rf_config,
                 const RegReplayConfig &replay_config, bool isv,
                 std::size_t uops)
{
    keyRegFileConfig(key, rf_config);
    key.b(replay_config.fp)
        .u32(replay_config.commitDelay)
        .f64(replay_config.portFreeProb)
        .u64(replay_config.seed)
        .b(isv)
        .u64(uops);
}

void
keyAttackConfig(CacheKeyBuilder &key, const AttackConfig &attack)
{
    key.u64(attack.dataValue)
        .u32(attack.imm)
        .u32(attack.latency)
        .u32(attack.port)
        .u32(attack.mobId)
        .u32(attack.flags)
        .u32(attack.opcode)
        .b(attack.taken)
        .u32(attack.branchPeriod)
        .u32(attack.hotRegs);
}

} // namespace penelope
