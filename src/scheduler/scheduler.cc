#include "scheduler.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/bitword.hh"
#include "obs/metrics.hh"

namespace penelope {

namespace {

/** Histogram folds of the scheduler's duty accounting (one per
 *  statistics read that follows a flush).  File-scope handle: the
 *  disabled cost must stay one relaxed branch. */
const obs::Counter g_schedulerDrains =
    obs::Registry::instance().counter("scheduler.drains");

} // namespace

namespace {

/**
 * Table-2 layout constants for the fused allocate path: the packed
 * offset of every field is fixed (fields.cc asserts the 144/132-bit
 * totals), so one uop's whole 144-bit image can be composed with
 * shifts into three words instead of 18 spec lookups and
 * read-modify-write deposits.  The Scheduler constructor asserts
 * each offset against the authoritative layout.
 */
constexpr unsigned kValidOff = 0;    // 1 bit
constexpr unsigned kLatencyOff = 1;  // 5 bits
constexpr unsigned kPortOff = 6;     // 5 bits
constexpr unsigned kTakenOff = 11;   // 1 bit
constexpr unsigned kMobIdOff = 12;   // 6 bits
constexpr unsigned kTosOff = 18;     // 3 bits
constexpr unsigned kFlagsOff = 21;   // 6 bits
constexpr unsigned kShift1Off = 27;  // 1 bit
constexpr unsigned kShift2Off = 28;  // 1 bit
constexpr unsigned kDstTagOff = 29;  // 7 bits
constexpr unsigned kSrc1TagOff = 36; // 7 bits
constexpr unsigned kSrc2TagOff = 43; // 7 bits
constexpr unsigned kReady1Off = 50;  // 1 bit
constexpr unsigned kReady2Off = 51;  // 1 bit
constexpr unsigned kSrc1DataOff = 52; // 32 bits (straddles w0/w1)
constexpr unsigned kSrc2DataOff = 84; // 32 bits (in w1)
constexpr unsigned kImmOff = 116;     // 16 bits (straddles w1/w2)
constexpr unsigned kOpcodeOff = 132;  // 12 bits (in w2)

constexpr unsigned kSrc1DataField = 14;
constexpr unsigned kSrc2DataField = 15;
constexpr unsigned kImmField = 16;

/** Every field except the three conditionally-used capture fields
 *  (Src1Data / Src2Data / Imm) holds live data in a busy slot. */
constexpr std::uint32_t kAlwaysUsedFields = 0x3ffffu &
    ~((std::uint32_t(1) << kSrc1DataField) |
      (std::uint32_t(1) << kSrc2DataField) |
      (std::uint32_t(1) << kImmField));

// Per-word bit masks of the always-used fields and of each
// conditional field, in the packed layout.
constexpr std::uint64_t kAlwaysMaskW0 =
    (std::uint64_t(1) << kSrc1DataOff) - 1; // bits 0..51
constexpr std::uint64_t kAlwaysMaskW2 = 0xfffull << 4; // opcode
constexpr std::uint64_t kSrc1MaskW0 = ~kAlwaysMaskW0; // bits 52..63
constexpr std::uint64_t kSrc1MaskW1 = (std::uint64_t(1) << 20) - 1;
constexpr std::uint64_t kSrc2MaskW1 = 0xffffffffull << 20;
constexpr std::uint64_t kImmMaskW1 = 0xfffull << 52;
constexpr std::uint64_t kImmMaskW2 = 0xfull;
constexpr std::uint64_t kLayoutMaskW2 = 0xffffull; // bits 128..143

constexpr std::uint32_t kAllFields = 0x3ffffu;
constexpr std::uint32_t kSrc1DataBit = std::uint32_t(1)
    << kSrc1DataField;
constexpr std::uint32_t kSrc2DataBit = std::uint32_t(1)
    << kSrc2DataField;
constexpr std::uint32_t kImmBit = std::uint32_t(1) << kImmField;
constexpr unsigned kValidField = 0;

/** Layout mask of the fields in @p used, which holds every
 *  always-used field (a busy slot's). */
inline std::array<std::uint64_t, 3>
inUseMask(std::uint32_t used)
{
    return {kAlwaysMaskW0 | (used & kSrc1DataBit ? kSrc1MaskW0 : 0u),
            (used & kSrc1DataBit ? kSrc1MaskW1 : 0u) |
                (used & kSrc2DataBit ? kSrc2MaskW1 : 0u) |
                (used & kImmBit ? kImmMaskW1 : 0u),
            kAlwaysMaskW2 | (used & kImmBit ? kImmMaskW2 : 0u)};
}

/** Add @p dt at each of @p words' 18 layout byte values. */
inline void
chargeBytes(std::array<std::array<std::uint64_t, 256>, 18> &hist,
            std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
            std::uint64_t dt)
{
    for (unsigned i = 0; i < 8; ++i) {
        hist[i][(w0 >> (8 * i)) & 0xff] += dt;
        hist[8 + i][(w1 >> (8 * i)) & 0xff] += dt;
    }
    hist[16][w2 & 0xff] += dt;
    hist[17][(w2 >> 8) & 0xff] += dt;
}

/** Charge one byte's histogram into its 8 per-bit counters (bin v
 *  adds to every bit set in v) and clear it. */
inline void
foldByte(std::array<std::uint64_t, 256> &hist, std::uint64_t *bits)
{
    for (unsigned v = 1; v < 256; ++v) {
        const std::uint64_t t = hist[v];
        if (t == 0)
            continue;
        for (unsigned m = v; m; m &= m - 1)
            bits[std::countr_zero(m)] += t;
    }
    hist.fill(0);
}

} // namespace

Scheduler::Scheduler(const SchedulerConfig &config)
    : config_(config)
{
    // The replay driver keeps due releases in one 64-bit entry mask.
    if (config_.numEntries < 1 || config_.numEntries > 64) {
        throw std::invalid_argument(
            "Scheduler: numEntries must be 1..64");
    }
    const FieldLayout &layout = fieldLayout();
    assert(layout.totalBits() == kLayoutBits);
    assert(layout.count() <= 32); // holdsInverted is a 32-bit mask
    entries_.resize(config_.numEntries);
    freeList_.resize(config_.numEntries);
    for (unsigned i = 0; i < config_.numEntries; ++i)
        freeList_[i] = i;

    decisions_.assign(layout.totalBits(), BitDecision{});
    dutyGens_.assign(layout.totalBits(), DutyGenerator(1.0));

    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        assert(spec.width >= 1 && spec.width < 64);
        for (unsigned g = spec.offset; g < spec.offset + spec.width; ++g)
            fieldMask_[f][g / 64] |= std::uint64_t(1) << (g % 64);
    }
    // RINV starts as the inversion of all-zero fields.
    rinv_.fill(~std::uint64_t(0));

    fieldInvertedTime_.assign(layout.count(), 0);
    rebuildRepairPlans();

    // The fused allocate path composes images from the layout
    // constants above; pin them to the authoritative layout.
    assert(layout.spec(FieldId::Valid).offset == kValidOff);
    assert(layout.spec(FieldId::Latency).offset == kLatencyOff);
    assert(layout.spec(FieldId::Port).offset == kPortOff);
    assert(layout.spec(FieldId::Taken).offset == kTakenOff);
    assert(layout.spec(FieldId::MobId).offset == kMobIdOff);
    assert(layout.spec(FieldId::Tos).offset == kTosOff);
    assert(layout.spec(FieldId::Flags).offset == kFlagsOff);
    assert(layout.spec(FieldId::Shift1).offset == kShift1Off);
    assert(layout.spec(FieldId::Shift2).offset == kShift2Off);
    assert(layout.spec(FieldId::DstTag).offset == kDstTagOff);
    assert(layout.spec(FieldId::Src1Tag).offset == kSrc1TagOff);
    assert(layout.spec(FieldId::Src2Tag).offset == kSrc2TagOff);
    assert(layout.spec(FieldId::Ready1).offset == kReady1Off);
    assert(layout.spec(FieldId::Ready2).offset == kReady2Off);
    assert(layout.spec(FieldId::Src1Data).offset == kSrc1DataOff);
    assert(layout.spec(FieldId::Src2Data).offset == kSrc2DataOff);
    assert(layout.spec(FieldId::Imm).offset == kImmOff);
    assert(layout.spec(FieldId::Opcode).offset == kOpcodeOff);
    assert(static_cast<unsigned>(FieldId::Valid) == kValidField);
    assert(static_cast<unsigned>(FieldId::Src1Data) ==
           kSrc1DataField);
    assert(static_cast<unsigned>(FieldId::Src2Data) ==
           kSrc2DataField);
    assert(static_cast<unsigned>(FieldId::Imm) == kImmField);
    assert(layout.spec(FieldId::Valid).width == 1);
}

void
Scheduler::configureProtection(std::vector<BitDecision> decisions)
{
    assert(decisions.size() == fieldLayout().totalBits());
    decisions_ = std::move(decisions);
    for (unsigned b = 0; b < decisions_.size(); ++b)
        dutyGens_[b].setK(decisions_[b].k);
    rebuildRepairPlans();
}

void
Scheduler::rebuildRepairPlans()
{
    const FieldLayout &layout = fieldLayout();
    keepMask_ = all1Mask_ = isvMask_ = LayoutWords{};
    kBits_.clear();
    isvFields_ = 0;
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        for (unsigned g = spec.offset; g < spec.offset + spec.width; ++g) {
            const unsigned w = g / 64;
            const std::uint64_t bit = std::uint64_t(1) << (g % 64);
            const Technique t = decisions_[g].technique;
            switch (t) {
              case Technique::All1:
                all1Mask_[w] |= bit;
                break;
              case Technique::All0:
                break; // uncovered bits come out 0
              case Technique::All1K:
              case Technique::All0K:
                kBits_.push_back({static_cast<std::uint8_t>(f),
                                  static_cast<std::uint8_t>(g),
                                  t == Technique::All0K});
                break;
              case Technique::Isv:
                isvMask_[w] |= bit;
                isvFields_ |= std::uint32_t(1) << f;
                break;
              case Technique::None:
              case Technique::Unprotectable:
                keepMask_[w] |= bit;
                break;
            }
        }
    }
}

void
Scheduler::enableProtection(bool enabled)
{
    protectionEnabled_ = enabled;
}

Scheduler::LayoutWords
Scheduler::placeField(unsigned field, std::uint64_t value) const
{
    const unsigned offset = fieldLayout().spec(field).offset;
    const unsigned w = offset / 64;
    const unsigned shift = offset % 64;
    LayoutWords out{};
    out[w] = value << shift;
    if (shift != 0 && w + 1 < kLayoutWords)
        out[w + 1] = value >> (64 - shift);
    for (unsigned i = 0; i < kLayoutWords; ++i)
        out[i] &= fieldMask_[field][i];
    return out;
}

void
Scheduler::flushEntry(Entry &e, Cycle now)
{
    const std::uint64_t dt = now > e.since ? now - e.since : 0;
    if (dt == 0)
        return;
    // 18 histogram adds per flush (36 when busy), whatever the image
    // or dt: the per-bit counters are charged only when a reader
    // folds.
    chargeBytes(oneHist_, e.image[0], e.image[1], e.image[2], dt);
    histPending_ = true;
    const std::uint32_t uf = e.inUseFields;
    if (uf) {
        // A busy slot has every always-used field live (the fused
        // allocate deposits them as one group).
        assert((uf & kAlwaysUsedFields) == kAlwaysUsedFields);
        const auto use = inUseMask(uf);
        chargeBytes(busyZeroHist_, ~e.image[0] & use[0],
                    ~e.image[1] & use[1], ~e.image[2] & use[2], dt);
        busyTime_ += dt;
        if (uf & kSrc1DataBit)
            src1Time_ += dt;
        if (uf & kSrc2DataBit)
            src2Time_ += dt;
        if (uf & kImmBit)
            immTime_ += dt;
    }
    entryTime_ += dt;
    for (std::uint32_t m = e.holdsInverted; m; m &= m - 1)
        fieldInvertedTime_[static_cast<unsigned>(std::countr_zero(m))] +=
            dt;
    e.since = now;
}

void
Scheduler::foldHistograms()
{
    if (!histPending_)
        return;
    histPending_ = false;
    g_schedulerDrains.add();
    for (unsigned i = 0; i < kLayoutBytes; ++i) {
        foldByte(oneHist_[i], &oneTime_[8 * i]);
        foldByte(busyZeroHist_[i], &busyZero_[8 * i]);
    }
}

void
Scheduler::flushAll(Cycle now)
{
    for (Entry &e : entries_)
        flushEntry(e, now);
    foldHistograms();
    occupancyFlush(now);
}

void
Scheduler::occupancyFlush(Cycle now)
{
    if (now > lastOccupancyFlush_) {
        busyIntegral_ += static_cast<double>(busyCount_) *
            static_cast<double>(now - lastOccupancyFlush_);
        lastOccupancyFlush_ = now;
    }
}

void
Scheduler::repairImage(LayoutWords &image, std::uint32_t fields,
                       const LayoutWords &region,
                       std::uint32_t write_isv)
{
    // ISV fields outside write_isv take the plain (re-inverted)
    // sample.
    LayoutWords isv_src = rinv_;
    for (std::uint32_t m = fields & isvFields_ & ~write_isv; m;
         m &= m - 1) {
        const unsigned f = static_cast<unsigned>(std::countr_zero(m));
        for (unsigned w = 0; w < kLayoutWords; ++w)
            isv_src[w] ^= fieldMask_[f][w];
    }
    for (unsigned w = 0; w < kLayoutWords; ++w) {
        const std::uint64_t out = (image[w] & keepMask_[w]) |
            all1Mask_[w] | (isv_src[w] & isvMask_[w]);
        image[w] = (image[w] & ~region[w]) | (out & region[w]);
    }
    for (const KBit &kb : kBits_) {
        if (((fields >> kb.field) & 1) &&
            dutyGens_[kb.global].next() != kb.inverted)
            image[kb.global / 64] |= std::uint64_t(1) << (kb.global % 64);
    }
}

BitWord
Scheduler::repairValue(unsigned field, const BitWord &current,
                       bool write_isv)
{
    const FieldSpec &spec = fieldLayout().spec(field);
    LayoutWords image = placeField(field, current.lo());
    const std::uint32_t bit = std::uint32_t(1) << field;
    repairImage(image, bit, fieldMask_[field], write_isv ? bit : 0);
    const unsigned w = spec.offset / 64;
    const unsigned shift = spec.offset % 64;
    std::uint64_t v = image[w] >> shift;
    if (shift != 0 && w + 1 < kLayoutWords)
        v |= image[w + 1] << (64 - shift);
    return BitWord(spec.width, v);
}

void
Scheduler::repairFields(Entry &e, std::uint32_t fields,
                        const LayoutWords &region)
{
    // ISV balance meter (timestamps, Section 3.2.2): write inverted
    // contents while non-inverted residence leads, plain samples
    // otherwise, so entries hold inverted values 50% of the
    // overall time.
    const std::uint32_t isv = fields & isvFields_;
    std::uint32_t write_isv = 0;
    for (std::uint32_t m = isv; m; m &= m - 1) {
        const unsigned f = static_cast<unsigned>(std::countr_zero(m));
        if (entryTime_ - fieldInvertedTime_[f] >= fieldInvertedTime_[f])
            write_isv |= std::uint32_t(1) << f;
    }
    e.holdsInverted = (e.holdsInverted & ~isv) | write_isv;
    repairImage(e.image, fields, region, write_isv);
}

void
Scheduler::sampleRinv(const Uop &uop, const RenameTags &tags)
{
    // ISV fields of RINV are refreshed with the inversion of values
    // flowing through the allocate port (Section 4.5: sampled from
    // register file reads/bypasses and instruction immediates).
    // Only fields the sampled uop actually populates are refreshed:
    // inverting a dont-care zero would bias RINV to all-ones.
    const FieldLayout &layout = fieldLayout();
    for (std::uint32_t m = isvFields_; m; m &= m - 1) {
        const unsigned f = static_cast<unsigned>(std::countr_zero(m));
        const FieldId id = layout.spec(f).id;
        if (!fieldUsedByUop(id, uop, tags))
            continue;
        const LayoutWords v =
            placeField(f, fieldValue(id, uop, tags).inverted().lo());
        for (unsigned w = 0; w < kLayoutWords; ++w)
            rinv_[w] = (rinv_[w] & ~fieldMask_[f][w]) | v[w];
    }
}

int
Scheduler::allocate(const Uop &uop, const RenameTags &tags,
                    Cycle now)
{
    if (busyCount_ == config_.numEntries)
        return -1;
    const unsigned idx = freeList_[freeHead_];
    if (++freeHead_ == config_.numEntries)
        freeHead_ = 0;
    occupancyFlush(now);
    Entry &e = entries_[idx];
    assert(!e.busy);
    e.busy = true;
    ++busyCount_;

    if (protectionEnabled_ &&
        (allocCount_ % config_.isvSampleInterval) == 0) {
        sampleRinv(uop, tags);
    }
    ++allocCount_;

    flushEntry(e, now);

    // Fused field deposit: compose the uop's whole 144-bit image
    // and in-use mask with shifts against the constant layout, then
    // merge in one read-modify-write per word.  Field for field
    // this deposits exactly what the spec-driven path
    // (fieldUsedByUop / fieldValue) would -- values are masked to
    // their field widths -- it just never touches the spec table.
    const std::uint32_t used = kAlwaysUsedFields |
        (uop.usesSrc1() && !tags.ready1 ? kSrc1DataBit : 0u) |
        (uop.usesSrc2() && !tags.ready2 ? kSrc2DataBit : 0u) |
        (uop.hasImm ? kImmBit : 0u);

    const std::uint64_t s1 = uop.srcVal1 & 0xffffffffull;
    const std::uint64_t s2 = uop.srcVal2 & 0xffffffffull;
    const std::uint64_t imm = uop.imm;

    const std::uint64_t b0 = (std::uint64_t(1) << kValidOff) |
        (std::uint64_t(uop.latency & 0x1f) << kLatencyOff) |
        (((std::uint64_t(1) << uop.port) & 0x1f) << kPortOff) |
        (std::uint64_t(uop.taken) << kTakenOff) |
        (std::uint64_t(uop.mobId & 0x3f) << kMobIdOff) |
        (std::uint64_t(uop.tos & 0x7) << kTosOff) |
        (std::uint64_t(uop.flags & 0x3f) << kFlagsOff) |
        (std::uint64_t(uop.shift1) << kShift1Off) |
        (std::uint64_t(uop.shift2) << kShift2Off) |
        (std::uint64_t(tags.dstTag & 0x7f) << kDstTagOff) |
        (std::uint64_t(tags.src1Tag & 0x7f) << kSrc1TagOff) |
        (std::uint64_t(tags.src2Tag & 0x7f) << kSrc2TagOff) |
        (std::uint64_t(tags.ready1) << kReady1Off) |
        (std::uint64_t(tags.ready2) << kReady2Off) |
        (s1 << (kSrc1DataOff % 64));
    const std::uint64_t b1 = (s1 >> (64 - kSrc1DataOff % 64)) |
        (s2 << (kSrc2DataOff % 64)) | (imm << (kImmOff % 64));
    const std::uint64_t b2 = (imm >> (64 - kImmOff % 64)) |
        (std::uint64_t(uop.opcode & 0xfff) << (kOpcodeOff % 64));

    const auto um = inUseMask(used);
    e.image[0] = (e.image[0] & ~um[0]) | (b0 & um[0]);
    e.image[1] = (e.image[1] & ~um[1]) | (b1 & um[1]);
    e.image[2] = (e.image[2] & ~um[2]) | (b2 & um[2]);
    e.inUseFields = used;
    e.holdsInverted &= ~used;

    // Unused fields of a busy slot may hold repair values (they are
    // written through the allocate port anyway).
    if (protectionEnabled_ && (~used & kAllFields) != 0) {
        repairFields(e, ~used & kAllFields,
                     {~um[0], ~um[1], ~um[2] & kLayoutMaskW2});
    }
    return static_cast<int>(idx);
}

void
Scheduler::release(unsigned entry, Cycle now, bool /*port_available*/)
{
    assert(entry < entries_.size());
    Entry &e = entries_[entry];
    assert(e.busy);
    occupancyFlush(now);
    e.busy = false;
    --busyCount_;
    freeList_[freeTail_] = entry;
    if (++freeTail_ == config_.numEntries)
        freeTail_ = 0;

    flushEntry(e, now);
    e.inUseFields = 0;

    // The valid bit drops to 0 on release; its contents are always
    // live, so it cannot be repaired.
    e.image[0] &= ~(std::uint64_t(1) << kValidOff);
    e.holdsInverted &= ~(std::uint32_t(1) << kValidField);
    if (protectionEnabled_) {
        repairFields(e, kAllFields & ~(std::uint32_t(1) << kValidField),
                     {~(std::uint64_t(1) << kValidOff), ~std::uint64_t(0),
                      kLayoutMaskW2});
    }
}

double
Scheduler::occupancy(Cycle now) const
{
    if (now == 0)
        return 0.0;
    const double pending = static_cast<double>(busyCount_) *
        static_cast<double>(now - lastOccupancyFlush_);
    return (busyIntegral_ + pending) /
        (static_cast<double>(config_.numEntries) *
         static_cast<double>(now));
}

std::vector<double>
Scheduler::biasVector(Cycle now)
{
    return snapshotStress(now).biasVector();
}

std::vector<BitProfile>
Scheduler::bitProfiles(Cycle now)
{
    return snapshotStress(now).bitProfiles();
}

double
Scheduler::worstFigure8Bias(Cycle now)
{
    return snapshotStress(now).worstFigure8Bias();
}

SchedulerStress
Scheduler::snapshotStress(Cycle now)
{
    flushAll(now);
    SchedulerStress s;
    s.numEntries = config_.numEntries;
    s.cycles = now;
    s.busyIntegral = busyIntegral_;

    // Materialise the per-field tracker views from the 144-bit
    // per-bit counters.  Within a field every bit shares the same
    // total/in-use time (fields are used whole), so the
    // shared-total tracker representation is exact.
    const FieldLayout &layout = fieldLayout();
    s.totalBias.reserve(layout.count());
    s.busyBias.reserve(layout.count());
    s.fieldUseTime.reserve(layout.count());
    std::array<std::uint64_t, kLayoutBits> zero_total;
    for (unsigned b = 0; b < kLayoutBits; ++b)
        zero_total[b] = entryTime_ - oneTime_[b];
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        const std::uint32_t bit = std::uint32_t(1) << f;
        const std::uint64_t use_time = bit == kSrc1DataBit ? src1Time_
            : bit == kSrc2DataBit ? src2Time_
            : bit == kImmBit      ? immTime_
                                  : busyTime_;
        s.totalBias.push_back(BitBiasTracker::fromTimes(
            spec.width, &zero_total[spec.offset], entryTime_));
        s.busyBias.push_back(BitBiasTracker::fromTimes(
            spec.width, &busyZero_[spec.offset], use_time));
        s.fieldUseTime.push_back(use_time);
    }
    return s;
}

void
SchedulerStress::merge(const SchedulerStress &other)
{
    assert(numEntries == other.numEntries);
    assert(totalBias.size() == other.totalBias.size());
    cycles += other.cycles;
    busyIntegral += other.busyIntegral;
    for (std::size_t f = 0; f < totalBias.size(); ++f) {
        totalBias[f].merge(other.totalBias[f]);
        busyBias[f].merge(other.busyBias[f]);
        fieldUseTime[f] += other.fieldUseTime[f];
    }
}

double
SchedulerStress::occupancy() const
{
    if (cycles == 0)
        return 0.0;
    return busyIntegral / (static_cast<double>(numEntries) *
                           static_cast<double>(cycles));
}

std::vector<double>
SchedulerStress::biasVector() const
{
    std::vector<double> out;
    out.reserve(fieldLayout().totalBits());
    for (const BitBiasTracker &field : totalBias) {
        const auto v = field.biasVector();
        out.insert(out.end(), v.begin(), v.end());
    }
    return out;
}

std::vector<BitProfile>
SchedulerStress::bitProfiles() const
{
    const FieldLayout &layout = fieldLayout();
    std::vector<BitProfile> out;
    out.reserve(layout.totalBits());
    const double denom = static_cast<double>(numEntries) *
        static_cast<double>(cycles);
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        const double occ = denom > 0.0
            ? static_cast<double>(fieldUseTime[f]) / denom : 0.0;
        for (unsigned b = 0; b < spec.width; ++b) {
            BitProfile p;
            p.occupancy = occ;
            p.bias0Busy = busyBias[f].zeroProbability(b);
            out.push_back(p);
        }
    }
    return out;
}

double
SchedulerStress::worstFigure8Bias() const
{
    const auto bias = biasVector();
    const FieldLayout &layout = fieldLayout();
    double worst = 0.5;
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        if (!spec.inFigure8)
            continue;
        for (unsigned b = 0; b < spec.width; ++b) {
            const double p = bias[spec.offset + b];
            worst = std::max(worst, std::max(p, 1.0 - p));
        }
    }
    return worst;
}

} // namespace penelope
