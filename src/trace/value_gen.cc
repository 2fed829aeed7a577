#include "value_gen.hh"

#include <cassert>
#include <cmath>

namespace penelope {

IntValueGen::IntValueGen(const IntValueProfile &profile, Rng rng)
    : profile_(profile),
      smallGeom_(1.0 / profile.meanSmallMagnitude),
      rng_(rng)
{
}

Word
IntValueGen::next()
{
    const double u = rng_.nextDouble();
    double acc = profile_.zeroProb;
    if (u < acc)
        return 0;
    acc += profile_.smallPosProb;
    if (u < acc)
        return (smallGeom_(rng_) + 1) & 0xffffffffULL;
    acc += profile_.smallNegProb;
    if (u < acc) {
        const std::int64_t mag = static_cast<std::int64_t>(
            smallGeom_(rng_)) + 1;
        return static_cast<std::uint32_t>(-mag);
    }
    acc += profile_.pointerProb;
    if (u < acc) {
        // Heap/stack-like 32-bit pointers: high nibble patterns with
        // 16B alignment; ~20% have bit 31 set (kernel/stack range).
        Addr p = 0x08000000 + (rng_.nextInt(1 << 24) << 4);
        if (rng_.nextBool(0.2))
            p |= 0x80000000;
        return p & 0xffffffffULL;
    }
    return rng_() & 0xffffffffULL;
}

FpValueGen::FpValueGen(const FpValueProfile &profile, Rng rng)
    : profile_(profile), rng_(rng)
{
}

BitWord
FpValueGen::encode(double value)
{
    BitWord w(fpWidth);
    if (value == 0.0)
        return w; // +0.0: all fields zero
    bool negative = std::signbit(value);
    double mag = std::fabs(value);
    int exp2 = 0;
    const double frac = std::frexp(mag, &exp2); // frac in [0.5, 1)
    // Extended format wants 1.xxx * 2^(exp2-1).
    const int unbiased = exp2 - 1;
    const std::uint64_t biased =
        static_cast<std::uint64_t>(unbiased + 16383) & 0x7fff;
    // Significand: explicit integer bit at position 63.
    const double sig = frac * 2.0; // [1, 2)
    // Keep 53 bits of precision (double source); the rest are zero,
    // exactly as when real hardware widens a double to extended.
    const std::uint64_t mantissa = static_cast<std::uint64_t>(
        sig * 0x1.0p52) << 11;
    BitWord out(fpWidth, mantissa, biased | (negative ? 0x8000 : 0));
    return out;
}

BitWord
FpValueGen::next()
{
    const double u = rng_.nextDouble();
    double acc = profile_.zeroProb;
    double value = 0.0;
    if (u < acc) {
        value = 0.0;
    } else if (u < (acc += profile_.oneProb)) {
        value = 1.0;
    } else if (u < (acc += profile_.smallIntProb)) {
        value = static_cast<double>(rng_.nextInt(1024) + 1);
    } else if (u < (acc += profile_.unitRangeProb)) {
        value = rng_.nextDouble();
    } else {
        // General magnitudes over several decades.
        value = std::exp((rng_.nextDouble() - 0.5) * 20.0);
    }
    if (value != 0.0 && rng_.nextBool(profile_.negativeProb))
        value = -value;
    BitWord w = encode(value);
    // x87 arithmetic results carry full 64-bit significands; values
    // widened from doubles have 11 trailing zeros.  Model a share
    // of full-precision results so the low mantissa bits are not
    // permanently stuck at zero.
    if (value != 0.0 && rng_.nextBool(0.35)) {
        const std::uint64_t noise = rng_() & 0x7ff;
        w = BitWord(fpWidth, w.lo() | noise, w.hi());
    }
    return w;
}

AddressGen::AddressGen(const AddressProfile &profile, Rng rng)
    : profile_(profile),
      rng_(rng),
      runGeom_(1.0 / profile.meanRunLength),
      repeatGeom_(1.0 / profile.meanAccessesPerLine),
      zipf_(std::max<std::uint64_t>(
                1, profile.workingSetBytes / profile.lineBytes),
            profile.zipfExponent),
      numLines_(std::max<std::uint64_t>(
          1, profile.workingSetBytes / profile.lineBytes)),
      runRemaining_(0),
      currentLine_(0),
      repeatRemaining_(0)
{
}

Addr
AddressGen::next()
{
    if (repeatRemaining_ == 0) {
        // Move to a new line: continue the sequential run, start a
        // new one, or jump to a Zipf-popular line.
        if (runRemaining_ > 0) {
            --runRemaining_;
            currentLine_ = (currentLine_ + 1) % numLines_;
        } else if (rng_.nextBool(profile_.sequentialFraction)) {
            runRemaining_ = runGeom_(rng_);
            currentLine_ = zipf_.sample(rng_);
        } else {
            currentLine_ = zipf_.sample(rng_);
        }
        repeatRemaining_ = 1 + repeatGeom_(rng_);
    }
    --repeatRemaining_;
    const Addr offset = rng_.nextInt(profile_.lineBytes / 4) * 4;
    // Scatter lines across pages: only linesPerPage lines of each
    // 4KB page are used, so the DTLB footprint is realistic.  The
    // used slots are strided per page so cache-set indices stay
    // uniformly distributed.
    const Addr page = currentLine_ / profile_.linesPerPage;
    const Addr lip = currentLine_ % profile_.linesPerPage;
    const Addr slots = 4096 / profile_.lineBytes;
    const Addr stride = slots / profile_.linesPerPage;
    const Addr slot = (lip * stride + page % stride) % slots;
    return profile_.base + page * 4096 +
        slot * profile_.lineBytes + offset;
}

} // namespace penelope
