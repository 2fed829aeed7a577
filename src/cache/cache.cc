#include "cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "inversion.hh"

namespace penelope {

CacheConfig
CacheConfig::tlb(std::uint32_t entries, std::uint32_t ways,
                 std::uint32_t page_bytes)
{
    CacheConfig cfg;
    cfg.name = "DTLB";
    cfg.lineBytes = page_bytes;
    cfg.ways = std::min(ways, entries);
    cfg.sizeBytes = entries * page_bytes;
    return cfg;
}

Cache::Cache(const CacheConfig &config)
    : config_(config),
      numSets_(config.numSets()),
      lineShift_(static_cast<unsigned>(
          std::countr_zero(config.lineBytes))),
      match_(static_cast<std::size_t>(config.numSets()) * config.ways,
             kNoLine),
      lastUse_(match_.size(), 0),
      lastAccess_(match_.size(), 0),
      lines_(match_.size()),
      mruHits_(config.ways),
      usableSetCount_(config.numSets()),
      usableSetsPow2_(std::has_single_bit(config.numSets())),
      usableWayCount_(config.ways),
      dataBias_(64),
      rng_(0xcac4e + config.sizeBytes + config.ways)
{
    assert(numSets_ >= 1);
    assert(config_.ways >= 1);
    assert(std::has_single_bit(config_.lineBytes));
}

Cache::~Cache() = default;

void
Cache::setPolicy(std::unique_ptr<InversionPolicy> policy)
{
    policy_ = std::move(policy);
    if (policy_)
        policy_->attach(*this, lastRatioUpdate_);
}

void
Cache::policyCycle(Cycle now)
{
    policy_->onCycle(*this, now);
}

double
Cache::missRate() const
{
    const std::uint64_t total = accesses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(misses_) / static_cast<double>(total);
}

double
Cache::invertRatio() const
{
    return static_cast<double>(invertedCount_) /
        static_cast<double>(numLines());
}

double
Cache::averageInvertRatio(Cycle now) const
{
    const double pending = invertRatio() *
        static_cast<double>(now - lastRatioUpdate_);
    if (now == 0)
        return invertRatio();
    return (invertRatioIntegral_ + pending) /
        static_cast<double>(now);
}

void
Cache::flushImage(Line &line, Cycle now)
{
    if (now > line.imageSince) {
        dataBias_.observe(line.image, now - line.imageSince);
        line.imageSince = now;
    }
}

int
Cache::inversionTarget(unsigned set, bool skip_shadow) const
{
    // Plain-invalid lines hold dead data: inverting one is free.
    // Only a fully valid set sacrifices its LRU line, which is the
    // steady-state case the paper describes (most cache contents
    // are useless and about to be evicted anyway).
    const std::size_t base = slot(set, 0);
    int lru = -1;
    Cycle lru_use = ~Cycle(0);
    for (unsigned i = 0; i < usableWayCount_; ++i) {
        const unsigned w = windowWay(i);
        const Line &line = lines_[base + w];
        if (line.inverted || (skip_shadow && line.shadow))
            continue;
        if (match_[base + w] == kNoLine)
            return static_cast<int>(w);
        if (lastUse_[base + w] < lru_use) {
            lru_use = lastUse_[base + w];
            lru = static_cast<int>(w);
        }
    }
    return lru;
}

unsigned
Cache::pickVictim(unsigned set)
{
    // One branch-free pass over the window, walked backwards so the
    // first way in window order wins: the first invalid (including
    // inverted) line, and the LRU line (<= backwards is < forwards,
    // so a tie keeps the first way).
    const std::size_t base = slot(set, 0);
    unsigned invalid = config_.ways;
    unsigned lru = windowWay(0);
    for (unsigned i = usableWayCount_; i-- > 0;) {
        const unsigned w = windowWay(i);
        invalid = match_[base + w] == kNoLine ? w : invalid;
        lru = lastUse_[base + w] <= lastUse_[base + lru] ? w : lru;
    }
    // Consuming an inverted line is the designed refill path
    // (Section 3.2.1).
    if (invalid != config_.ways)
        return invalid;

    if (config_.replacement == ReplacementPolicy::Random)
        return windowWay(
            static_cast<unsigned>(rng_.nextInt(usableWayCount_)));
    // pLRU is approximated by sampling two candidates and taking the
    // older (tree pLRU behaves statistically like this at our
    // granularity).
    if (config_.replacement == ReplacementPolicy::PseudoLru &&
        usableWayCount_ > 2) {
        const unsigned w1 = windowWay(
            static_cast<unsigned>(rng_.nextInt(usableWayCount_)));
        const unsigned w2 = windowWay(
            static_cast<unsigned>(rng_.nextInt(usableWayCount_)));
        return lastUse_[base + w1] <= lastUse_[base + w2] ? w1 : w2;
    }
    return lru;
}

void
Cache::logTieEvictions(std::vector<TieEviction> *log)
{
    assert(!log || !policy_);
    tieLog_ = log;
}

void
Cache::logTieEviction(unsigned set)
{
    // Without a policy the window is every way, in way order.  Only
    // the access right after the oldest can share its cycle, and it
    // decides the victim only from a lower way.
    const std::size_t base = slot(set, 0);
    unsigned oldest = 0;
    for (unsigned w = 1; w < config_.ways; ++w) {
        if (lastAccess_[base + w] < lastAccess_[base + oldest])
            oldest = w;
    }
    const std::uint64_t older = lastAccess_[base + oldest];
    for (unsigned w = 0; w < oldest; ++w) {
        if (lastAccess_[base + w] == older + 1) {
            tieLog_->push_back(
                {older, lastUse_[base + w] == lastUse_[base + oldest]});
            return;
        }
    }
}

bool
Cache::touchHitLine(unsigned set, unsigned way, Cycle now, bool store,
                    Word data)
{
    Line &line = lines_[slot(set, way)];
    if (store) {
        flushImage(line, now);
        line.image = data;
    }
    if (!line.shadow)
        return false;
    if (policy_)
        policy_->onShadowHit(*this, set, way, now);
    return true;
}

AccessResult
Cache::fill(unsigned set, std::uint64_t line_no, Cycle now,
            bool has_data, Word data)
{
    AccessResult result;
    const std::uint64_t ordinal = accesses();
    ++misses_;
    const unsigned victim = pickVictim(set);
    const std::size_t at = slot(set, victim);
    if (tieLog_ && match_[at] != kNoLine)
        logTieEviction(set);
    Line &line = lines_[at];
    if (line.inverted) {
        // Ratio bookkeeping before the state change.
        invertRatioIntegral_ += invertRatio() *
            static_cast<double>(now - lastRatioUpdate_);
        lastRatioUpdate_ = now;
        --invertedCount_;
        result.consumedInvertedLine = true;
    }
    setShadow(set, victim, false);
    flushImage(line, now);
    match_[at] = line_no;
    line.inverted = false;
    lastUse_[at] = now;
    lastAccess_[at] = ordinal;
    // Every fill draws from rng_, even when data is given.  The
    // draw is deliberate: the mechanisms share rng_, so every
    // result depends on it (README, "Known deviations").
    const Word drawn = rng_();
    line.image = has_data ? data : drawn;

    if (policy_)
        policy_->onFill(*this, set, victim, now,
                        result.consumedInvertedLine);
    return result;
}

bool
Cache::invertLine(unsigned set, unsigned way, Cycle now)
{
    Line &line = lines_[slot(set, way)];
    if (line.inverted)
        return false;
    invertRatioIntegral_ += invertRatio() *
        static_cast<double>(now - lastRatioUpdate_);
    lastRatioUpdate_ = now;
    flushImage(line, now);
    // Invalidate and store complemented contents so the opposite
    // PMOS of every bit cell ages during the inverted residence.
    line.image = ~line.image;
    match_[slot(set, way)] = kNoLine;
    line.inverted = true;
    setShadow(set, way, false);
    ++invertedCount_;
    return true;
}

bool
Cache::invertLruLineOfSet(unsigned set, Cycle now)
{
    const int way = inversionTarget(set, false);
    return way >= 0 && invertLine(set, static_cast<unsigned>(way), now);
}

void
Cache::setUsableSets(unsigned first, unsigned count, Cycle now)
{
    assert(count >= 1 && count <= numSets_);
    assert(first < numSets_);
    usableSetFirst_ = first;
    usableSetCount_ = count;
    usableSetsPow2_ = std::has_single_bit(count);
    // Every line in the now-unusable sets becomes inverted (valid
    // contents are complemented in place; dead lines hold inverted
    // garbage, which balances their cells just the same).
    for (unsigned s = 0; s < numSets_; ++s) {
        const bool usable =
            ((s + numSets_ - first) % numSets_) < count;
        if (usable)
            continue;
        for (unsigned w = 0; w < config_.ways; ++w)
            invertLine(s, w, now);
    }
}

void
Cache::setUsableWays(unsigned first, unsigned count, Cycle now)
{
    assert(count >= 1 && count <= config_.ways);
    assert(first < config_.ways);
    usableWayFirst_ = first;
    usableWayCount_ = count;
    for (unsigned s = 0; s < numSets_; ++s) {
        for (unsigned w = 0; w < config_.ways; ++w) {
            const bool usable =
                ((w + config_.ways - first) % config_.ways) < count;
            if (!usable)
                invertLine(s, w, now);
        }
    }
}

void
Cache::setShadow(unsigned set, unsigned way, bool shadow)
{
    Line &line = lines_[slot(set, way)];
    if (line.shadow == shadow)
        return;
    line.shadow = shadow;
    if (shadow)
        ++shadowCount_;
    else
        --shadowCount_;
}

bool
Cache::isShadow(unsigned set, unsigned way) const
{
    return lines_[slot(set, way)].shadow;
}

void
Cache::clearShadows()
{
    for (auto &line : lines_)
        line.shadow = false;
    shadowCount_ = 0;
}

bool
Cache::shadowMarkLruLineOfSet(unsigned set)
{
    // The same target as invertLruLineOfSet: the shadow test must
    // model the real preference (dead lines first) or it would
    // overestimate the induced extra misses.
    const int way = inversionTarget(set, true);
    if (way < 0)
        return false;
    setShadow(set, static_cast<unsigned>(way), true);
    return true;
}

bool
Cache::lineValid(unsigned set, unsigned way) const
{
    return match_[slot(set, way)] != kNoLine;
}

bool
Cache::lineInverted(unsigned set, unsigned way) const
{
    return lines_[slot(set, way)].inverted;
}

const BitBiasTracker &
Cache::finalizeDataBias(Cycle now)
{
    for (auto &line : lines_)
        flushImage(line, now);
    return dataBias_;
}

} // namespace penelope
