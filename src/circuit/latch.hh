/**
 * @file
 * Input-latch aging model (Section 3.3).
 *
 * Latches are memory-like (two cross-coupled inverters per bit) but
 * cannot be loaded with arbitrary repair values: they feed the block
 * behind them, so whatever mitigates NBTI in the block determines
 * what the latch holds.  The paper's observations modelled here:
 *
 *  - latch transistors are large (high fanout, no sense amps), so
 *    they tolerate bias: their effective guardband is attenuated
 *    like other wide devices;
 *  - alternating a complementary idle-input pair makes the latches
 *    hold opposite values for similar times, balancing them as a
 *    side effect of protecting the combinational block.
 */

#ifndef PENELOPE_CIRCUIT_LATCH_HH
#define PENELOPE_CIRCUIT_LATCH_HH

#include <cstdint>
#include <vector>

#include "common/duty.hh"
#include "nbti/guardband.hh"

namespace penelope {

/**
 * A bank of latch bits feeding a combinational block, with per-bit
 * duty-cycle accounting and wide-device guardband evaluation.
 */
class LatchBank
{
  public:
    explicit LatchBank(unsigned width);

    unsigned width() const { return bias_.width(); }

    /** Hold @p value for @p dt cycles. */
    void hold(const BitWord &value, std::uint64_t dt = 1);

    /** Hold a plain word (LSB-first) for @p dt cycles. */
    void hold(Word value, std::uint64_t dt = 1);

    /**
     * Hold 64 values at once, each for @p dt cycles -- the
     * latch-bank sibling of PmosAgingTracker::observeBatch.
     * @p bit_words holds width() per-bit lane words (bit v of word
     * b = bit b of value v, the layout transpose64x64 packs),
     * and only the lanes selected by @p lane_mask count (padding
     * of a partial batch is ignored).  Bit-identical to 64 scalar
     * hold() calls: both paths add exactly the same integers (see
     * BitBiasTracker::observeBatch).
     */
    void holdBatch(const std::uint64_t *bit_words,
                   std::uint64_t lane_mask, std::uint64_t dt = 1);

    /** Worst-case stress over all bit cells. */
    double worstCaseStress() const;

    /**
     * Required guardband.  Latch devices are wide (Section 3.3), so
     * the wide attenuation of @p model applies.
     */
    double guardband(const GuardbandModel &model) const;

    /** Whether any bit needs more margin than a balanced narrow
     *  device would (the paper's criterion for when latch-specific
     *  mitigation becomes necessary). */
    bool needsMitigation(const GuardbandModel &model) const;

    const BitBiasTracker &bias() const { return bias_; }

  private:
    BitBiasTracker bias_;
};

} // namespace penelope

#endif // PENELOPE_CIRCUIT_LATCH_HH
