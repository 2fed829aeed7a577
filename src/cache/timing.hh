/**
 * @file
 * Memory-hierarchy timing simulation for the Table-3 experiment.
 *
 * Performance is modelled additively: every uop contributes a base
 * CPI; DL0 and DTLB misses add fixed penalties.  The performance
 * *loss* of an inversion mechanism is the relative cycle increase
 * against an identically-driven baseline run, which is exactly the
 * quantity Table 3 reports (the paper's absolute CPI depends on its
 * proprietary core model; the additive model preserves orderings and
 * magnitudes of the deltas).
 */

#ifndef PENELOPE_CACHE_TIMING_HH
#define PENELOPE_CACHE_TIMING_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache.hh"
#include "inversion.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace penelope {

class ThreadPool;
class ResultCache;

/** Additive timing-model parameters. */
struct MemTimingParams
{
    double baseCpi = 0.65;          ///< non-miss CPI per uop
    unsigned dl0MissPenalty = 12;   ///< cycles per DL0 miss (L2 hit)
    unsigned dtlbMissPenalty = 30;  ///< cycles per DTLB miss (walk)
};

/** Selectable inversion mechanism for experiment configuration. */
enum class MechanismKind : std::uint8_t
{
    None,
    SetFixed50,
    WayFixed50,
    LineFixed50,
    LineDynamic60,
};

const char *mechanismName(MechanismKind kind);

/**
 * Instantiate a mechanism for a cache configuration.  Dynamic
 * thresholds follow the paper's per-geometry values; @p is_tlb
 * selects the DTLB threshold table.  Time constants are scaled by
 * @p time_scale (1.0 = the paper's 200K/200K/10M cycles) so short
 * synthetic traces exercise the full warmup/test/decide machinery.
 */
std::unique_ptr<InversionPolicy>
makeMechanism(MechanismKind kind, const CacheConfig &config,
              bool is_tlb, double time_scale = 1.0);

/** Result of one trace run through the memory hierarchy. */
struct MemSimResult
{
    std::uint64_t uops = 0;
    std::uint64_t memOps = 0;
    std::uint64_t dl0Hits = 0;
    std::uint64_t dl0Misses = 0;
    std::uint64_t dtlbHits = 0;
    std::uint64_t dtlbMisses = 0;
    double cycles = 0.0;
    double dl0AvgInvertRatio = 0.0;
    double dtlbAvgInvertRatio = 0.0;

    double cpi() const
    {
        return uops ? cycles / static_cast<double>(uops) : 0.0;
    }
};

/** What the memory hierarchy sees of one uop. */
enum class MemKind : std::uint8_t
{
    Other, ///< non-memory uop: advances time only
    Load,
    Store,
};

/**
 * The memory-relevant projection of a generated trace, materialised
 * once and replayed through any number of MemTimingSim instances.
 * Compact by design: one kind byte per uop, plus an address and a
 * data image (the stored value, or the loaded one) per memory uop
 * only, where a full Trace holds a whole Uop per uop.
 */
struct MemStream
{
    std::vector<MemKind> kinds;   ///< one per uop
    std::vector<Addr> addrs;      ///< one per Load/Store, in order
    std::vector<Word> data;       ///< parallel to addrs

    /** Draw @p num_uops uops from @p gen. */
    static MemStream generate(TraceGenerator &gen,
                              std::size_t num_uops);

    std::size_t size() const { return kinds.size(); }
};

/** The cache a one-cache replay simulates. */
enum class MemSide : std::uint8_t
{
    Dl0,
    Dtlb,
};

/**
 * What one run recorded of a cache without a mechanism: its misses
 * and the evictions a cycle tie could decide.  Under any timing that
 * ties each logged eviction's two accesses alike, the cache hits and
 * misses exactly as recorded, so a replay can charge its misses
 * without simulating it.
 */
struct MissRecord
{
    std::vector<std::uint64_t> misses; ///< bit k: memory uop k missed
    std::vector<TieEviction> ties;     ///< Cache::logTieEvictions
};

/**
 * One DL0 + DTLB pair driven by a uop stream.
 */
class MemTimingSim
{
  public:
    MemTimingSim(const CacheConfig &dl0_config,
                 const CacheConfig &dtlb_config,
                 const MemTimingParams &params,
                 MechanismKind dl0_mechanism,
                 MechanismKind dtlb_mechanism,
                 double time_scale = 1.0);

    /** Run @p num_uops uops from @p gen. */
    MemSimResult run(TraceGenerator &gen, std::size_t num_uops);

    /** Run every uop of @p stream; the same result as run(gen, n)
     *  on the generator the stream was drawn from.  A non-null
     *  record receives that cache's misses and tie evictions; a
     *  recorded cache must carry no mechanism. */
    MemSimResult run(const MemStream &stream,
                     MissRecord *dl0_record = nullptr,
                     MissRecord *dtlb_record = nullptr);

    /**
     * Simulate only the @p side cache of @p stream and charge the
     * other side's misses from @p other, a record of the other
     * geometry without a mechanism on the same stream.  The result
     * is exactly run(stream)'s, the unsimulated side reading its
     * hits and misses from @p other and an invert ratio of 0 --
     * unless a logged eviction of @p other ties differently under
     * this run's timing.  Then the other cache might have evicted
     * differently, and the result is nullopt.  A non-null @p record
     * records the simulated cache as run() does.  Needs
     * MemTimingParams::baseCpi >= 0.5, so that only consecutive
     * accesses can share a cycle.
     */
    std::optional<MemSimResult> replay(const MemStream &stream,
                                       MemSide side,
                                       const MissRecord &other,
                                       MissRecord *record = nullptr);

    Cache &dl0() { return dl0_; }
    Cache &dtlb() { return dtlb_; }

  private:
    /** The two-cache loop; @p next yields one MemRef per uop. */
    template <class Next>
    MemSimResult runLoop(std::size_t num_uops, Next &&next,
                         MissRecord *dl0_record = nullptr,
                         MissRecord *dtlb_record = nullptr);

    MemTimingParams params_;
    Cache dl0_;
    Cache dtlb_;
};

/**
 * Per-trace outcome of one baseline-vs-mechanism pair of runs: the
 * unit the Table-3 folds consume and the result cache stores.  Both
 * invert ratios are carried so the same cached entry serves a
 * DL0-applied and a DTLB-applied fold alike.
 */
struct MemLossSample
{
    double loss = 0.0;            ///< relative cycle increase
    double normalizedCycles = 1.0;
    double dl0InvertRatio = 0.0;
    double dtlbInvertRatio = 0.0;
};

/** Aggregated performance-loss statistics for Table 3. */
struct PerfLossStats
{
    double meanLoss = 0.0;        ///< average relative cycle increase
    double maxLoss = 0.0;
    double fracAbove5Pct = 0.0;   ///< traces losing > 5%
    double fracAbove10Pct = 0.0;  ///< traces losing > 10%
    double meanInvertRatio = 0.0; ///< time-averaged invert ratio
    unsigned traces = 0;
};

/**
 * One cell of a cache experiment: a DL0 + DTLB geometry pair and
 * the mechanism applied to each, priced against the same pair with
 * no mechanism.
 */
struct MemCell
{
    CacheConfig dl0;
    CacheConfig dtlb;
    MechanismKind dl0Mechanism = MechanismKind::None;
    MechanismKind dtlbMechanism = MechanismKind::None;
};

/**
 * Price every cell on every trace; returns samples indexed
 * [cell][trace position].
 *
 * The driver is trace-major: one engine task per trace looks every
 * cell up in @p cache (per-cell keys, so entries written by a
 * one-cell call are shared), and only if some cell misses does it
 * generate the trace once into a MemStream and price the missing
 * cells with simulateStreamCells.  Tasks share nothing and samples
 * land in per-trace slots, so the result is bit-identical for any
 * @p jobs and with a cold, warm, or absent cache.
 */
std::vector<std::vector<MemLossSample>>
simulateMemCells(const WorkloadSet &workload,
                 const std::vector<unsigned> &trace_indices,
                 std::size_t uops_per_trace,
                 const std::vector<MemCell> &cells,
                 const MemTimingParams &params = MemTimingParams(),
                 double time_scale = 0.1, unsigned jobs = 1,
                 ThreadPool *pool = nullptr,
                 ResultCache *cache = nullptr);

/**
 * Price @p cells on one stream: each distinct (DL0, DTLB) geometry
 * pair's baseline once, then each cell's mechanism.  Geometry
 * equality ignores CacheConfig::name, exactly as the cache key does.
 *
 * A cache without a mechanism is simulated as rarely as is exact.
 * Its hits and misses depend on time only through LRU ties: two
 * lines last used in one cycle keep the first way, not the older
 * line.  At baseCpi >= 0.5 only consecutive accesses share a cycle,
 * so a tie can move a victim only when the two oldest lines of a
 * full set came from consecutive accesses and the newer one sits at
 * the lower way.  The first baseline runs both caches and records
 * each one's misses and such evictions (MissRecord).  A later
 * baseline that shares a geometry with a recorded cache simulates
 * only its other cache (MemTimingSim::replay) and records it too;
 * a cell with a mechanism on one side simulates only that side.  A
 * replay that ties some recorded eviction differently is discarded
 * and the cell runs both caches, as does every cell with two
 * mechanisms, a non-LRU cache without a mechanism, or
 * baseCpi < 0.5.  Samples are bit-identical to two-cache runs of
 * every cell.
 */
std::vector<MemLossSample>
simulateStreamCells(const MemStream &stream,
                    const std::vector<MemCell> &cells,
                    const MemTimingParams &params = MemTimingParams(),
                    double time_scale = 0.1);

/** Fold one cell's per-trace samples, in trace order, into Table-3
 *  statistics; @p dl0_ratio picks which invert ratio is averaged. */
PerfLossStats
foldPerfLoss(const std::vector<MemLossSample> &samples,
             bool dl0_ratio);

/** Mean normalised cycles of one cell's per-trace samples. */
double meanNormalizedCycles(const std::vector<MemLossSample> &samples);

/**
 * Measure the performance loss of @p mechanism applied to the DL0
 * (@p apply_to_dl0 true) or the DTLB (false), against a
 * no-mechanism baseline, averaged over the given workload traces.
 * A one-cell simulateMemCells plus foldPerfLoss.
 */
PerfLossStats
measurePerfLoss(const WorkloadSet &workload,
                const std::vector<unsigned> &trace_indices,
                std::size_t uops_per_trace,
                const CacheConfig &dl0_config,
                const CacheConfig &dtlb_config,
                MechanismKind mechanism, bool apply_to_dl0,
                const MemTimingParams &params = MemTimingParams(),
                double time_scale = 0.1, unsigned jobs = 1,
                ThreadPool *pool = nullptr,
                ResultCache *cache = nullptr);

/**
 * Combined normalised CPI with mechanisms on both DL0 and DTLB
 * (the Section-4.7 input: 1.007 for LineFixed50% on both).
 * A one-cell simulateMemCells plus meanNormalizedCycles.
 */
double
combinedNormalizedCpi(const WorkloadSet &workload,
                      const std::vector<unsigned> &trace_indices,
                      std::size_t uops_per_trace,
                      const CacheConfig &dl0_config,
                      const CacheConfig &dtlb_config,
                      MechanismKind mechanism,
                      const MemTimingParams &params =
                          MemTimingParams(),
                      double time_scale = 0.1, unsigned jobs = 1,
                      ThreadPool *pool = nullptr,
                      ResultCache *cache = nullptr);

} // namespace penelope

#endif // PENELOPE_CACHE_TIMING_HH
