/**
 * @file
 * Set-associative cache model with NBTI inversion support
 * (Section 3.2.1 / 4.6).
 *
 * The model serves two purposes: (i) performance evaluation of the
 * inversion mechanisms (hits/misses/MRU-position statistics feeding
 * the Table-3 experiment) and (ii) bit-cell stress accounting (each
 * line carries a 64-bit data image whose per-bit residence time
 * feeds a BitBiasTracker, demonstrating the bias 90% -> ~50% claim).
 *
 * Inversion state: a line is either valid (holding program data) or
 * *inverted* -- invalid for lookups, its cells holding the bitwise
 * complement of a sampled value so both PMOS devices of every cell
 * age evenly.  The valid/state bits encode valid+non-inverted or
 * invalid+inverted, exactly as the paper describes.
 *
 * Kernel layout: each set keeps parallel per-way arrays, the line
 * number while valid (else a sentinel), the last-use cycle and the
 * last access's ordinal, so a lookup reads 16 bytes per way and
 * never the cold per-line record (data image, inverted/shadow
 * bits).  Only ways of the usable window ever hold valid lines --
 * fills pick window ways, and setUsableSets/setUsableWays invert
 * every line outside the window -- so a branch-free scan of the
 * whole set finds exactly the hits a window-order scan would.
 */

#ifndef PENELOPE_CACHE_CACHE_HH
#define PENELOPE_CACHE_CACHE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/duty.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace penelope {

class InversionPolicy;

/** Replacement policy selection. */
enum class ReplacementPolicy : std::uint8_t
{
    Lru,       ///< true LRU
    PseudoLru, ///< tree pLRU
    Random,    ///< random victim
};

/** Static cache geometry and behaviour. */
struct CacheConfig
{
    std::string name = "DL0";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
    ReplacementPolicy replacement = ReplacementPolicy::Lru;

    /** Probability a spare write port is available for an inversion
     *  update on any given cycle (Section 3.2: existing ports are
     *  reused; updates that find no port are simply delayed). */
    double writePortFreeProb = 0.9;

    std::uint32_t numSets() const
    {
        return sizeBytes / (ways * lineBytes);
    }
    std::uint32_t numLines() const { return numSets() * ways; }

    /** Convenience: TLB geometry expressed as a cache (one line per
     *  page-table entry). */
    static CacheConfig tlb(std::uint32_t entries,
                           std::uint32_t ways = 8,
                           std::uint32_t page_bytes = 4096);
};

/** Result of one cache access. */
struct AccessResult
{
    /** Recency position of the hit way (0 = MRU).  First, so the
     *  struct packs into 8 bytes and returns in one register. */
    unsigned mruPosition = 0;

    bool hit = false;

    /** The replaced victim was an inverted line (on miss). */
    bool consumedInvertedLine = false;

    /** Hit landed on a shadow-marked line (dynamic-mechanism test
     *  phase induced extra miss). */
    bool shadowExtraMiss = false;
};

/**
 * An LRU eviction a cycle tie could decide (Cache::logTieEvictions).
 * The two oldest lines of the full set were last touched by the
 * consecutive accesses @p older and older + 1, and the newer line
 * sits at the lower way: if both accesses fell in one cycle the
 * newer line is evicted, else the older one.
 */
struct TieEviction
{
    std::uint64_t older = 0;  ///< ordinal of the older access
    bool tied = false;        ///< both accesses in one cycle
};

/**
 * The cache proper.  Addresses are byte addresses; tags store the
 * full line number so set remapping (set/way inversion) can never
 * produce false hits.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);
    ~Cache();

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Install an inversion policy (may be null). */
    void setPolicy(std::unique_ptr<InversionPolicy> policy);
    InversionPolicy *policy() { return policy_.get(); }

    /**
     * Look up @p addr; allocate on miss.  @p data is the value image
     * stored on a fill/write (used only for bias accounting).
     */
    AccessResult access(Addr addr, bool is_write, Cycle now,
                        std::optional<Word> data = std::nullopt);

    /** Let the policy act at cycle @p now.  Drivers differ in
     *  cadence: Pipeline ticks once per cycle, MemTimingSim once
     *  per uop (README, "Known deviations"). */
    void
    tick(Cycle now)
    {
        if (policy_)
            policyCycle(now);
    }

    /** @name Inversion manipulators (used by policies) */
    /// @{
    /** Invalidate and invert a specific line; returns false if the
     *  line was already inverted. */
    bool invertLine(unsigned set, unsigned way, Cycle now);

    /** Invert the LRU valid line of @p set; false if none valid. */
    bool invertLruLineOfSet(unsigned set, Cycle now);

    /** Restrict lookups/allocation to a rotating window of sets
     *  (other sets become inverted). */
    void setUsableSets(unsigned first, unsigned count, Cycle now);

    /** Restrict lookups/allocation to a rotating window of ways. */
    void setUsableWays(unsigned first, unsigned count, Cycle now);

    /** Mark/unmark a line as shadow-inverted (test phase). */
    void setShadow(unsigned set, unsigned way, bool shadow);
    bool isShadow(unsigned set, unsigned way) const;

    /** Clear all shadow marks. */
    void clearShadows();

    /** Shadow analogue of invertLruLineOfSet. */
    bool shadowMarkLruLineOfSet(unsigned set);
    /// @}

    /** @name Introspection */
    /// @{
    const CacheConfig &config() const { return config_; }
    unsigned numSets() const { return numSets_; }
    unsigned numWays() const { return config_.ways; }
    unsigned numLines() const { return numSets_ * config_.ways; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    double missRate() const;

    /** Histogram of hit recency positions (Section 3.2.1). */
    const CategoryCounter &mruHitPositions() const { return mruHits_; }

    /** Number of currently inverted lines. */
    unsigned invertedCount() const { return invertedCount_; }
    unsigned shadowCount() const { return shadowCount_; }

    /** Fraction of lines currently inverted. */
    double invertRatio() const;

    /** Time-average of the invert ratio since construction. */
    double averageInvertRatio(Cycle now) const;

    bool lineValid(unsigned set, unsigned way) const;
    bool lineInverted(unsigned set, unsigned way) const;

    /**
     * Append every LRU eviction a cycle tie could decide to @p log
     * (null stops logging); the cache must carry no policy.
     * Accesses are numbered in order from 0 (accesses() before
     * each).  For an LRU cache these evictions are the only way time
     * reaches its hits and misses: logged with their tie status,
     * they let a replay under other timing check that it evicts
     * alike.
     */
    void logTieEvictions(std::vector<TieEviction> *log);

    /** Deterministic RNG used for random picks (seeded per cache). */
    Rng &rng() { return rng_; }

    /** Finish bias accounting up to @p now and return the per-bit
     *  tracker for the stored data images. */
    const BitBiasTracker &finalizeDataBias(Cycle now);

    /// @}

  private:
    /** The cold per-line record; tags and recency live in match_
     *  and lastUse_. */
    struct Line
    {
        Word image = 0;        ///< stored data image (bias only)
        Cycle imageSince = 0;
        bool inverted = false;
        bool shadow = false;
    };

    /** match_ entry of a line that is not valid. */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t(0);

    std::size_t
    slot(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * config_.ways + way;
    }

    /** Way at position @p i (< usableWayCount_) of the window. */
    unsigned
    windowWay(unsigned i) const
    {
        const unsigned w = usableWayFirst_ + i;
        return w >= config_.ways ? w - config_.ways : w;
    }

    /** Miss half of access(): allocate @p line_no in @p set. */
    AccessResult fill(unsigned set, std::uint64_t line_no, Cycle now,
                      bool has_data, Word data);

    /** Cold half of a hit: store @p data if @p store, and run the
     *  shadow-hit test; returns whether the line was shadowed. */
    bool touchHitLine(unsigned set, unsigned way, Cycle now,
                      bool store, Word data);

    /** Out-of-line half of tick(). */
    void policyCycle(Cycle now);

    /** Map a line number to its (possibly remapped) set. */
    unsigned
    indexOf(std::uint64_t line_no) const
    {
        // The window offset is below usableSetCount_ <= numSets_
        // and usableSetFirst_ < numSets_: one subtract wraps.
        const std::uint64_t offset = usableSetsPow2_
            ? line_no & (usableSetCount_ - 1)
            : line_no % usableSetCount_;
        const unsigned set =
            usableSetFirst_ + static_cast<unsigned>(offset);
        return set >= numSets_ ? set - numSets_ : set;
    }

    /** Pick a victim way among usable ways of @p set. */
    unsigned pickVictim(unsigned set);

    /** Log the eviction from full @p set if a tie could decide it. */
    void logTieEviction(unsigned set);

    /** The way of @p set's window to invert (or shadow-mark, with
     *  @p skip_shadow): the first plain-invalid line in window
     *  order, else the LRU valid one (first on a tie); lines
     *  already inverted, or shadowed if @p skip_shadow, never
     *  qualify.  -1 if no line does. */
    int inversionTarget(unsigned set, bool skip_shadow) const;

    /** Account the line's image residency up to @p now. */
    void flushImage(Line &line, Cycle now);

    CacheConfig config_;
    unsigned numSets_;
    unsigned lineShift_;             ///< log2(lineBytes)
    std::vector<std::uint64_t> match_; ///< line number or kNoLine
    std::vector<Cycle> lastUse_;
    std::vector<std::uint64_t> lastAccess_; ///< ordinal of last use
    std::vector<Line> lines_;
    std::vector<TieEviction> *tieLog_ = nullptr;
    std::unique_ptr<InversionPolicy> policy_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    CategoryCounter mruHits_;
    unsigned invertedCount_ = 0;
    unsigned shadowCount_ = 0;

    /** Rotating usable windows (set/way fixed mechanisms). */
    unsigned usableSetFirst_ = 0;
    unsigned usableSetCount_;
    bool usableSetsPow2_;            ///< mask instead of modulo
    unsigned usableWayFirst_ = 0;
    unsigned usableWayCount_;

    /** Invert-ratio time integral for averageInvertRatio(). */
    double invertRatioIntegral_ = 0.0;
    Cycle lastRatioUpdate_ = 0;

    BitBiasTracker dataBias_;

    Rng rng_;
};

/**
 * The hit path is inline: about nine accesses in ten hit, and the
 * timing sims call access() once or twice per memory uop.  Misses
 * (fill) and writes or shadow tests on a hit (touchHitLine) go out
 * of line.
 */
inline AccessResult
Cache::access(Addr addr, bool is_write, Cycle now,
              std::optional<Word> data)
{
    const std::uint64_t line_no = addr >> lineShift_;
    assert(line_no != kNoLine);
    const unsigned set = indexOf(line_no);
    const unsigned ways = config_.ways;
    const std::size_t base = slot(set, 0);
    const std::uint64_t *match = &match_[base];
    Cycle *last_use = &lastUse_[base];

    // Lookup over the whole set (exact by the window invariant;
    // a line number is held at most once per set).
    unsigned way = ways;
    for (unsigned w = 0; w < ways; ++w)
        way = match[w] == line_no ? w : way;
    if (way == ways)
        return fill(set, line_no, now, data.has_value(),
                    data.value_or(0));

    // Recency position: valid lines used strictly later.
    const Cycle ref = last_use[way];
    unsigned pos = 0;
    for (unsigned w = 0; w < ways; ++w)
        pos += (match[w] != kNoLine) & (last_use[w] > ref);
    lastAccess_[base + way] = hits_ + misses_;
    ++hits_;
    mruHits_.add(pos);
    last_use[way] = now;
    AccessResult result{pos, true};
    if ((is_write && data) || shadowCount_ != 0)
        result.shadowExtraMiss = touchHitLine(
            set, way, now, is_write && data, data.value_or(0));
    return result;
}

} // namespace penelope

#endif // PENELOPE_CACHE_CACHE_HH
