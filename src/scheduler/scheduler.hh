/**
 * @file
 * NBTI-aware scheduler model (Section 4.5).
 *
 * An explicitly managed block with short idle time and many fields
 * of distinct usage/bias patterns.  Protection writes repair values
 * into a slot when it is released (every field but Valid) and into
 * the fields the occupying uop leaves unused at allocation, using the
 * per-bit techniques chosen by the Figure-3 casuistic: layout-wide
 * keep/ALL1/ISV masks repair the whole image at once, ISV bits come
 * from a RINV register image, and only the K%-duty bits keep per-bit
 * generator state.
 *
 * Every entry packs its 18 fields into one 144-bit slot image (three
 * 64-bit words) with a single residence timestamp.  Duty accounting
 * is by byte histograms: a flush adds the residence to one bin per
 * image byte (18 bins) and, while the slot is busy, to one bin per
 * byte of the zeroed in-use complement.  Readers fold each byte's
 * 255 non-zero bins into its 8 per-bit counters, so a flush costs
 * the same few indexed adds whatever the image or the duration, and
 * the sums are the exact unsigned integers that charging every bit
 * on every event gives.  Per-field BitBiasTracker views are
 * materialised only when a snapshot is taken.
 */

#ifndef PENELOPE_SCHEDULER_SCHEDULER_HH
#define PENELOPE_SCHEDULER_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/duty.hh"
#include "common/types.hh"
#include "fields.hh"
#include "techniques.hh"

namespace penelope {

/** Static scheduler parameters. */
struct SchedulerConfig
{
    /** Slots, 1..64 (the paper's scheduler has 32). */
    unsigned numEntries = 32;

    /** Allocations between RINV refreshes of the ISV fields. */
    unsigned isvSampleInterval = 64;
};

/** Per-bit profile measured with protection disabled. */
struct BitProfile
{
    /** Fraction of entry-time the bit holds live data. */
    double occupancy = 0.0;

    /** P(bit == 0) while holding live data. */
    double bias0Busy = 0.5;
};

/**
 * Flushed, mergeable stress/occupancy accounting of a Scheduler.
 *
 * The parallel experiment engine runs every trace against its own
 * Scheduler, snapshots this struct, and merges the snapshots in
 * trace order; the duty-time sums make the aggregate independent of
 * how traces were distributed over workers.
 */
struct SchedulerStress
{
    unsigned numEntries = 0;
    Cycle cycles = 0; ///< simulated time covered by the snapshot
    double busyIntegral = 0.0;
    std::vector<BitBiasTracker> totalBias; ///< per field
    std::vector<BitBiasTracker> busyBias;  ///< per field, in-use only
    std::vector<std::uint64_t> fieldUseTime;

    /** Combine another snapshot (same geometry) into this one. */
    void merge(const SchedulerStress &other);

    /** Time-weighted slot occupancy over the covered time. */
    double occupancy() const;

    /** Concatenated per-bit bias towards "0" in layout order. */
    std::vector<double> biasVector() const;

    /** Per-bit profiles for the casuistic (layout order). */
    std::vector<BitProfile> bitProfiles() const;

    /** Worst |bias - 0.5| + 0.5 over the Figure-8 bits. */
    double worstFigure8Bias() const;
};

/**
 * The scheduler structure: slot lifecycle, per-bit stress
 * accounting, and the RINV-based repair machinery.
 */
class Scheduler
{
  public:
    /** Throws std::invalid_argument unless 1 <= numEntries <= 64
     *  (every slot index fits one mask word). */
    explicit Scheduler(const SchedulerConfig &config);

    /** Install per-bit protection decisions (layout order; size
     *  must equal fieldLayout().totalBits()). */
    void configureProtection(std::vector<BitDecision> decisions);

    void enableProtection(bool enabled);
    bool protectionEnabled() const { return protectionEnabled_; }

    const std::vector<BitDecision> &decisions() const
    {
        return decisions_;
    }

    /** Allocate a slot for @p uop; returns -1 when full. */
    int allocate(const Uop &uop, const RenameTags &tags, Cycle now);

    /** Release a slot (issue).  Repair values go through a spare
     *  allocate port; without one the write is delayed by a cycle
     *  or two, which is negligible against multi-cycle residences
     *  (Section 3.2), so it is modelled as applied at once. */
    void release(unsigned entry, Cycle now);

    unsigned numEntries() const { return config_.numEntries; }
    unsigned busyCount() const { return busyCount_; }
    bool full() const { return busyCount_ == config_.numEntries; }

    /** Time-weighted slot occupancy (paper: 63%). */
    double occupancy(Cycle now) const;

    /** Flush accounting and return the concatenated per-bit bias
     *  towards "0" in layout order (144 entries). */
    std::vector<double> biasVector(Cycle now);

    /** Per-bit profiles for the casuistic (layout order). */
    std::vector<BitProfile> bitProfiles(Cycle now);

    /** Worst |bias - 0.5| + 0.5 over the Figure-8 bits. */
    double worstFigure8Bias(Cycle now);

    /** Flush accounting to @p now and snapshot it for merging. */
    SchedulerStress snapshotStress(Cycle now);

    const SchedulerConfig &config() const { return config_; }

    /** Build the repair value for one field at this instant: the
     *  whole-image repair recipe applied to that field alone.
     *  @p write_isv gates the ISV bits (the 50%-of-overall-time
     *  balance meter, Section 3.2.2); the field's K%-duty bits
     *  advance their generators (public so tests can pin the mask
     *  recipe against the scalar form). */
    BitWord repairValue(unsigned field, const BitWord &current,
                        bool write_isv);

  private:
    /** Bits, bytes and 64-bit words in the packed slot layout. */
    static constexpr unsigned kLayoutBits = 144;
    static constexpr unsigned kLayoutBytes = kLayoutBits / 8;
    static constexpr unsigned kLayoutWords = 3;

    using LayoutWords = std::array<std::uint64_t, kLayoutWords>;

    /** Summed durations per byte value, one 256-bin row per layout
     *  byte. */
    using ByteHistograms =
        std::array<std::array<std::uint64_t, 256>, kLayoutBytes>;

    struct Entry
    {
        bool busy = false;

        /** Packed field values in layout order. */
        LayoutWords image{};

        /** Fields holding live data (bit f = field f in use). */
        std::uint32_t inUseFields = 0;

        /** Per-field "last repair wrote RINV" bits. */
        std::uint32_t holdsInverted = 0;

        /** Residence of the current image (shared by all fields:
         *  every image change flushes the whole entry). */
        Cycle since = 0;
    };

    /** One ALL1-K%/ALL0-K% bit (these keep per-bit duty generator
     *  state). */
    struct KBit
    {
        std::uint8_t field;
        std::uint8_t global; ///< layout-order bit index
        bool inverted;       ///< ALL0-K%: write !next()
    };

    /** @p value at field @p field's place in the layout (bits past
     *  the field's width dropped). */
    LayoutWords placeField(unsigned field, std::uint64_t value) const;

    /** Charge the entry's image residence up to @p now to the byte
     *  histograms, the in-use sums and the ISV balance meters. */
    void flushEntry(Entry &e, Cycle now);

    void flushAll(Cycle now);
    void occupancyFlush(Cycle now);

    /** Charge every histogram bin into the per-bit counters and
     *  clear the histograms.  Every reader of the counters goes
     *  through this. */
    void foldHistograms();

    /** Recompute the repair masks, kBits_ and isvFields_ from
     *  decisions_. */
    void rebuildRepairPlans();

    /** Write the repair of @p fields (whose layout mask is
     *  @p region) into @p image: keep/ALL1/ISV masks over the whole
     *  image, then the K% bits in layout order.  ISV bits of fields
     *  in @p write_isv come from RINV, the others' from its
     *  inversion. */
    void repairImage(LayoutWords &image, std::uint32_t fields,
                     const LayoutWords &region, std::uint32_t write_isv);

    /** Repair @p fields (layout mask @p region) of an entry,
     *  choosing each ISV field's polarity from its balance meter
     *  and updating the entry's inverted-residence bookkeeping. */
    void repairFields(Entry &e, std::uint32_t fields,
                      const LayoutWords &region);

    /** Refresh the ISV bits of RINV from @p uop's field values. */
    void sampleRinv(const Uop &uop, const RenameTags &tags);

    SchedulerConfig config_;

    std::vector<Entry> entries_;

    /** Per-field layout masks. */
    std::array<LayoutWords, numFields> fieldMask_{};

    /** FIFO free list: slots rotate evenly, so every entry sees
     *  repair writes (and tag/slot usage is self-balanced).  A
     *  fixed-capacity ring (it never holds more than numEntries);
     *  occupancy is busyCount_, so head == tail is unambiguous. */
    std::vector<unsigned> freeList_;
    unsigned freeHead_ = 0;
    unsigned freeTail_ = 0;
    unsigned busyCount_ = 0;

    bool protectionEnabled_ = false;
    std::vector<BitDecision> decisions_;
    std::vector<DutyGenerator> dutyGens_; ///< per layout bit

    /** The Figure-3 decisions as layout masks.  None/Unprotectable
     *  bits keep their contents, ALL1 bits are pinned to 1, ISV bits
     *  are written from RINV; every other bit comes out 0 unless it
     *  is a K% bit. */
    LayoutWords keepMask_{};
    LayoutWords all1Mask_{};
    LayoutWords isvMask_{};
    std::vector<KBit> kBits_; ///< ascending layout order
    std::uint32_t isvFields_ = 0; ///< fields with an ISV bit

    /** RINV register image in layout order. */
    LayoutWords rinv_{};
    std::uint64_t allocCount_ = 0;

    /** Per-field ISV balance meters.  Only inverted residence is
     *  accumulated; non-inverted residence is entryTime_ minus it
     *  (every flush charges each field exactly once). */
    std::vector<std::uint64_t> fieldInvertedTime_;

    /** Unfolded durations by byte value: of the image, and of its
     *  zeroed in-use complement while the slot is busy. */
    ByteHistograms oneHist_{};
    ByteHistograms busyZeroHist_{};
    bool histPending_ = false; ///< a flush since the last fold

    /** Per-bit duty accounting over the 144-bit layout (folded). */
    std::array<std::uint64_t, kLayoutBits> oneTime_{};
    std::array<std::uint64_t, kLayoutBits> busyZero_{}; ///< in use

    /** In-use time.  Fields are used whole, so the always-used
     *  fields share one sum and each capture field keeps its own. */
    std::uint64_t busyTime_ = 0;
    std::uint64_t src1Time_ = 0;
    std::uint64_t src2Time_ = 0;
    std::uint64_t immTime_ = 0;

    /** Total flushed residence time (identical for every bit:
     *  each entry flush covers the whole layout). */
    std::uint64_t entryTime_ = 0;

    double busyIntegral_ = 0.0;
    Cycle lastOccupancyFlush_ = 0;
};

} // namespace penelope

#endif // PENELOPE_SCHEDULER_SCHEDULER_HH
