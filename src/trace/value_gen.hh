/**
 * @file
 * Synthetic datapath value generators.
 *
 * The Penelope results hinge on how biased program data is: the paper
 * reports per-bit zero probabilities of 65-90% for the integer
 * register file and up to 84% for FP (Figure 6, baseline).  These
 * generators model integer and x87-extended FP value populations as
 * mixtures of the value classes real programs produce (zeroes, small
 * positives, small negatives, pointers, random data), with mixture
 * weights as per-suite tuning knobs.
 */

#ifndef PENELOPE_TRACE_VALUE_GEN_HH
#define PENELOPE_TRACE_VALUE_GEN_HH

#include <cstdint>

#include "common/bitword.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace penelope {

/** Mixture weights for integer value classes (need not sum to 1;
 *  the remainder is fully random 32-bit data). */
struct IntValueProfile
{
    double zeroProb = 0.30;      ///< exact zero
    double smallPosProb = 0.40;  ///< geometric small positive
    double smallNegProb = 0.05;  ///< small negative (sign-extended)
    double pointerProb = 0.10;   ///< address-like values
    double meanSmallMagnitude = 64.0; ///< mean of small magnitudes
};

/** Mixture weights for FP (x87 80-bit extended) value classes. */
struct FpValueProfile
{
    double zeroProb = 0.15;      ///< +0.0
    double oneProb = 0.10;       ///< 1.0
    double smallIntProb = 0.25;  ///< small integers as FP
    double unitRangeProb = 0.30; ///< uniform in [0, 1)
    double negativeProb = 0.08;  ///< fraction of values negated
};

/** Generates 32-bit integer datapath values. */
class IntValueGen
{
  public:
    IntValueGen(const IntValueProfile &profile, Rng rng);

    /** Next 32-bit value (zero-extended into a Word). */
    Word next();

    const IntValueProfile &profile() const { return profile_; }

  private:
    IntValueProfile profile_;

    /** Small-magnitude distribution, mean meanSmallMagnitude. */
    GeometricDist smallGeom_;
    Rng rng_;
};

/**
 * Generates x87 80-bit extended-precision FP register images.
 *
 * Encoding: bit 79 sign, bits 78..64 biased exponent (bias 16383),
 * bits 63..0 significand with explicit integer bit (bit 63).
 */
class FpValueGen
{
  public:
    FpValueGen(const FpValueProfile &profile, Rng rng);

    /** Next 80-bit register image. */
    BitWord next();

    /** Encode a finite double as an 80-bit extended value. */
    static BitWord encode(double value);

    static constexpr unsigned fpWidth = 80;

    const FpValueProfile &profile() const { return profile_; }

  private:
    FpValueProfile profile_;
    Rng rng_;
};

/**
 * Memory address stream generator: a per-trace working set of cache
 * lines with Zipf-skewed popularity plus sequential runs, which
 * together reproduce the hit/miss and MRU-position behaviour cache
 * experiments depend on.
 */
struct AddressProfile
{
    std::uint64_t workingSetBytes = 64 * 1024;
    double zipfExponent = 0.8;   ///< popularity skew over lines
    double sequentialFraction = 0.4; ///< probability of run mode
    double meanRunLength = 8.0;  ///< mean lines per sequential run
    /** Mean consecutive accesses landing in the same line (spatial
     *  locality inside a 64B line; drives the MRU-hit share). */
    double meanAccessesPerLine = 4.0;

    /** Lines actually touched per 4KB page: programs use pages
     *  sparsely, so the page footprint (what the DTLB sees) is much
     *  larger than workingSetBytes / 4096. */
    unsigned linesPerPage = 8;

    unsigned lineBytes = 64;
    Addr base = 0x10000000;
};

class AddressGen
{
  public:
    AddressGen(const AddressProfile &profile, Rng rng);

    /** Next byte address (within a 64B line). */
    Addr next();

    const AddressProfile &profile() const { return profile_; }

  private:
    AddressProfile profile_;
    Rng rng_;
    GeometricDist runGeom_;    ///< lines per sequential run
    GeometricDist repeatGeom_; ///< extra accesses to one line
    ZipfTable zipf_;
    std::uint64_t numLines_;
    std::uint64_t runRemaining_;
    std::uint64_t currentLine_;
    std::uint64_t repeatRemaining_;
};

} // namespace penelope

#endif // PENELOPE_TRACE_VALUE_GEN_HH
