/**
 * @file
 * Duty-cycle accounting: the central instrumentation of Penelope.
 *
 * NBTI degradation of a PMOS transistor is driven by its zero-signal
 * probability: the fraction of time its gate observes logic "0".
 * DutyCycleCounter accumulates that probability for one signal;
 * BitBiasTracker does so for every bit cell of a storage structure
 * (where bias towards "0" stresses one of the two cross-coupled
 * inverters' PMOS devices).
 *
 * BitBiasTracker keeps one shared total-time scalar (every observe
 * covers every bit for the same dt, so per-bit total times are
 * always equal) and one plain per-bit counter of *one*-time: an
 * observe adds dt to the counter of each bit set in the value
 * (stored values lean towards zero, so the one-bits are the sparse
 * side), and a batched observe adds popcount x dt per bit.  Per-bit
 * zero-time is the exact difference total - one.  Every sum is an
 * exact unsigned integer, so the totals -- and every probability
 * derived from them -- do not depend on call batching, read points
 * or merge order.
 */

#ifndef PENELOPE_COMMON_DUTY_HH
#define PENELOPE_COMMON_DUTY_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "bitword.hh"
#include "types.hh"

namespace penelope {

/**
 * Accumulates the amount of time a single digital signal spends at
 * logic "0" vs logic "1".
 */
class DutyCycleCounter
{
  public:
    DutyCycleCounter() : zeroTime_(0), totalTime_(0) {}

    /** Counter snapshot from raw times (BitBiasTracker::counter
     *  returns one bit's view this way). */
    DutyCycleCounter(std::uint64_t zero_time, std::uint64_t total_time)
        : zeroTime_(zero_time), totalTime_(total_time)
    {
        assert(zeroTime_ <= totalTime_);
    }

    /** Record that the signal held @p level for @p dt time units. */
    void
    observe(bool level, std::uint64_t dt = 1)
    {
        if (!level)
            zeroTime_ += dt;
        totalTime_ += dt;
    }

    /** Fraction of observed time at "0" (0.5 if never observed). */
    double zeroProbability() const;

    /** Fraction of observed time at "1". */
    double oneProbability() const { return 1.0 - zeroProbability(); }

    /**
     * Worst-case stress probability for a bit cell holding this
     * signal: the more-stressed of the two PMOS devices, i.e.\
     * max(p0, 1-p0).  Always >= 0.5.
     */
    double worstCaseStress() const;

    std::uint64_t totalTime() const { return totalTime_; }
    std::uint64_t zeroTime() const { return zeroTime_; }

    void merge(const DutyCycleCounter &other);
    void reset();

  private:
    std::uint64_t zeroTime_;
    std::uint64_t totalTime_;
};

/**
 * Tracks per-bit "0" bias for a multi-bit storage field (see the
 * file comment for the representation).
 *
 * The tracker is time-weighted: call observe() with the currently
 * stored value and the number of cycles it has been held.
 */
class BitBiasTracker
{
  public:
    /** Maximum supported width (three 64-bit words; observe() sees
     *  the 128 bits a BitWord holds, fromTimes() views go wider). */
    static constexpr unsigned kMaxWidth = 192;

    explicit BitBiasTracker(unsigned width);

    /** Tracker snapshot from raw per-bit zero-times and a shared
     *  total time (used to materialise per-field views of wider
     *  accounting, e.g.\ the scheduler's slot layout). */
    static BitBiasTracker fromTimes(unsigned width,
                                    const std::uint64_t *zero_times,
                                    std::uint64_t total_time);

    unsigned width() const { return width_; }

    /** Record @p value held for @p dt cycles: dt is added to the
     *  one-time of each set bit and to the shared total. */
    void
    observe(const BitWord &value, std::uint64_t dt = 1)
    {
        assert(value.width() >= width_);
        addOnes(value.lo() & maskLo_, 0, dt);
        addOnes(value.hi() & maskHi_, 64, dt); // 0 for width <= 64
        totalTime_ += dt;
    }

    /** Record a plain 64-bit value held for @p dt cycles (bits at
     *  64 and above, if any, count as zero). */
    void
    observe(Word value, std::uint64_t dt = 1)
    {
        addOnes(value & maskLo_, 0, dt);
        totalTime_ += dt;
    }

    /**
     * Record 64 values at once, transposed into per-bit lane
     * words: bit v of @p bit_words[b] is bit b of value v -- the
     * layout transpose64x64 packs.  Every lane (value) selected by
     * @p lane_mask contributes @p dt cycles, exactly as one
     * observe() per selected value would; padding lanes of a
     * partial batch are ignored entirely.  @p bit_words must hold
     * width() words.
     *
     * Cost is one popcount per *bit* instead of one observe per
     * *value*; both add exactly the same integers, so every
     * derived statistic is bit-identical to the scalar path (the
     * observeBatch contract of PmosAgingTracker, kept here too).
     */
    void observeBatch(const std::uint64_t *bit_words,
                      std::uint64_t lane_mask,
                      std::uint64_t dt = 1);

    /** Per-bit zero probability. */
    double zeroProbability(unsigned bit) const;

    /** Per-bit worst-case stress (max of p0, 1-p0). */
    double worstCaseStress(unsigned bit) const;

    /** Highest zero probability over all bits. */
    double maxZeroProbability() const;

    /** Lowest zero probability over all bits. */
    double minZeroProbability() const;

    /** Highest worst-case stress over all bits (>= 0.5). */
    double maxWorstCaseStress() const;

    /** All per-bit zero probabilities, LSB first. */
    std::vector<double> biasVector() const;

    /** Snapshot of one bit's counter.  Returned by value: the
     *  tracker stores no per-bit counter objects. */
    DutyCycleCounter counter(unsigned bit) const;

    /** Total observed time (identical for every bit). */
    std::uint64_t totalTime() const { return totalTime_; }

    /** Accumulated zero-time of one bit. */
    std::uint64_t zeroTime(unsigned bit) const;

    void merge(const BitBiasTracker &other);
    void reset();

  private:
    /** Add @p dt to the one-time of every bit set in @p mask,
     *  which covers bits @p base .. @p base + 63. */
    void
    addOnes(std::uint64_t mask, unsigned base, std::uint64_t dt)
    {
        for (; mask; mask &= mask - 1)
            one_[base + static_cast<unsigned>(std::countr_zero(mask))] +=
                dt;
    }

    /** Zero probability of a bit with @p one_time accumulated
     *  one-time (zero-time is the exact integer difference). */
    double probability(std::uint64_t one_time) const;

    unsigned width_;
    std::uint64_t maskLo_;
    std::uint64_t maskHi_;
    std::uint64_t totalTime_ = 0;
    std::vector<std::uint64_t> one_; ///< per-bit one-time
};

} // namespace penelope

#endif // PENELOPE_COMMON_DUTY_HH
