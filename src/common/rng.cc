#include "rng.hh"

#include <cassert>
#include <cmath>

namespace penelope {

namespace {

/** SplitMix64 step, used only to expand seeds. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t stream)
{
    std::uint64_t x = base ^ (stream + 1) * 0x9e3779b97f4a7c15ULL;
    return splitMix64(x);
}

Rng::Rng(std::uint64_t seed)
{
    reseed(seed);
}

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
    // xoshiro must not start from the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ULL;
    cachedGaussian_ = 0.0;
    hasCachedGaussian_ = false;
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>((*this)());
    return lo + static_cast<std::int64_t>(nextInt(span));
}

double
Rng::nextGaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian_ = r * std::sin(theta);
    hasCachedGaussian_ = true;
    return r * std::cos(theta);
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    ZipfTable table(n, s);
    return table.sample(*this);
}

Rng
Rng::fork()
{
    return Rng((*this)());
}

ZipfTable::ZipfTable(std::uint64_t n, double s)
{
    assert(n > 0);
    assert(n <= ~std::uint32_t(0));
    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
    // Bucket index: B a power of two so u*B and j/B are exact (no
    // rounding), keeping the bucketed search bit-identical to the
    // full-range one.
    unsigned b = 1024;
    while (b > 4 * n)
        b >>= 1;
    numBuckets_ = b;
    bucketLo_.resize(b + 1);
    std::uint64_t i = 0;
    for (unsigned j = 0; j < b; ++j) {
        const double threshold =
            static_cast<double>(j) / static_cast<double>(b);
        while (i < n - 1 && cdf_[i] < threshold)
            ++i;
        bucketLo_[j] = static_cast<std::uint32_t>(i);
    }
    bucketLo_[b] = static_cast<std::uint32_t>(n - 1);
}

std::uint64_t
ZipfTable::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    // u in [j/B, (j+1)/B) exactly, so the first rank with
    // cdf >= u lies in [bucketLo_[j], bucketLo_[j+1]]: the same
    // index the full-range search would find.
    const unsigned j = static_cast<unsigned>(
        u * static_cast<double>(numBuckets_));
    std::uint64_t lo = bucketLo_[j];
    std::uint64_t hi = bucketLo_[j + 1];
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace penelope
