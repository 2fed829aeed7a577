/**
 * @file
 * Zero-cost-when-off metrics registry.
 *
 * A process-wide registry of named counters and count/sum
 * histograms, built for instrumenting hot loops that
 * must stay bit-identical and fast whether observability is on or
 * off:
 *
 *  - Counters and histograms write to *thread-local shards* --
 *    fixed arrays of `std::atomic<uint64_t>` slots that only the
 *    owning thread ever writes (relaxed load + store compiles to a
 *    plain add).  A scrape merges every live shard plus the
 *    retired totals of exited threads, the same merge discipline
 *    the ISV statistics use: writers never contend, readers sum.
 *  - The *runtime-off* fast path is one relaxed atomic-bool load
 *    per site; until something enables the registry
 *    (`--metrics-dump` or `--trace-out`) no
 *    shard is ever allocated and no slot is ever touched.
 *
 * Emission never writes to stdout and never touches an RNG
 * stream: the printed statistics of any run are byte-identical
 * with observability on or off (CI asserts this).
 *
 * A histogram is two slots: the observation count and the raw sum,
 * so a scrape reports means (`--metrics-dump` prints both).
 */

#ifndef PENELOPE_OBS_METRICS_HH
#define PENELOPE_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace penelope {
namespace obs {

enum class MetricKind : std::uint8_t
{
    Counter = 0,
    Histogram = 1,
};

/** Histogram geometry: the count slot, then the sum slot. */
inline constexpr std::size_t kHistSlots = 2;

/** Slot capacity of one thread shard; registration fails fast
 *  (std::abort) if the process ever outgrows it. */
inline constexpr std::size_t kSlotCapacity = 4096;

/** Default-constructed handles point at a sacrificial sink region
 *  (slots [0, kHistSlots)) so an uninitialized add/record is
 *  harmless instead of out of bounds; real allocation starts
 *  after it. */
inline constexpr std::uint32_t kInvalidSlot = 0;

namespace detail {

/** Runtime on/off switch, read relaxed on every emission. */
inline std::atomic<bool> g_enabled{false};

/** The calling thread's slot array (null until first emission on
 *  an enabled registry; null again after the thread retires its
 *  shard on exit).  Constant-initialized: no TLS init guard. */
inline thread_local std::atomic<std::uint64_t> *t_slots = nullptr;

/** Cold path: allocate (or reuse) a shard for this thread and
 *  install its slot array in t_slots.  Returns null only when the
 *  thread is already past shard retirement. */
std::atomic<std::uint64_t> *acquireShard();

inline void
bump(std::uint32_t slot, std::uint64_t n)
{
    auto *slots = t_slots;
    if (slots == nullptr) {
        slots = acquireShard();
        if (slots == nullptr)
            return;
    }
    auto &cell = slots[slot];
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

} // namespace detail

/** One relaxed load: is emission enabled right now?  Use to skip
 *  ancillary work (clock reads) that only feeds metrics. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Microseconds on the process-wide monotonic clock every span
 *  and latency histogram is stamped from (steady_clock anchored
 *  at first use). */
std::uint64_t monotonicMicros();

/** Monotonically increasing event counter.  add() is the hot
 *  path: one relaxed bool, one TLS pointer, one plain add. */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::uint64_t n = 1) const
    {
        if (!detail::g_enabled.load(std::memory_order_relaxed))
            return;
        detail::bump(slot_, n);
    }

  private:
    friend class Registry;
    explicit Counter(std::uint32_t slot) : slot_(slot) {}
    std::uint32_t slot_ = kInvalidSlot;
};

/** Value distribution (durations in us, sizes in bytes, ...)
 *  kept as count and sum.  record() bumps both. */
class Histogram
{
  public:
    Histogram() = default;

    void
    record(std::uint64_t v) const
    {
        if (!detail::g_enabled.load(std::memory_order_relaxed))
            return;
        detail::bump(base_, 1);
        detail::bump(base_ + 1, v);
    }

  private:
    friend class Registry;
    explicit Histogram(std::uint32_t base) : base_(base) {}
    std::uint32_t base_ = kInvalidSlot;
};

/** One scraped metric: name, kind, unit and its merged value
 *  slots (1 for counters, kHistSlots for histograms). */
struct SnapshotMetric
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::string unit;
    std::vector<std::uint64_t> values;

    std::uint64_t
    scalar() const
    {
        return values.empty() ? 0 : values[0];
    }

    /** Histogram observation count (slot 0). */
    std::uint64_t
    count() const
    {
        return scalar();
    }

    /** Histogram raw sum (slot 1). */
    std::uint64_t
    sum() const
    {
        return values.size() == kHistSlots ? values[1] : 0;
    }
};

/** A merged point-in-time view of every registered metric, sorted
 *  by name.  This is what --metrics-dump prints. */
struct Snapshot
{
    std::vector<SnapshotMetric> metrics;

    const SnapshotMetric *find(std::string_view name) const;
};

/** Sorted `obs: name value` lines, one metric per line and
 *  histograms as `.count` / `.sum`: the `--metrics-dump` listing,
 *  written to stderr, never stdout. */
std::string renderDump(const Snapshot &snap);

/** The process-wide registry.  Registration is cold (mutexed map
 *  by name, idempotent); emission goes through the handles. */
class Registry
{
  public:
    static Registry &instance();

    Counter counter(const std::string &name,
                    const std::string &unit = "1");
    Histogram histogram(const std::string &name,
                        const std::string &unit = "1");

    /** Turn runtime emission on/off (relaxed; takes effect on the
     *  next site hit).  Off never deallocates: re-enabling keeps
     *  accumulated values. */
    void setEnabled(bool on);

    /** Merge every live shard + retired totals into a
     *  name-sorted snapshot. */
    Snapshot scrape() const;

    /** Zero every slot (registrations survive).  Only
     *  meaningful while no other thread is emitting. */
    void resetValuesForTest();

    /** Live + free shard count (test visibility). */
    std::size_t shardCountForTest() const;

  private:
    Registry() = default;
};

/** Scoped enable: tests and benchmarks flip the registry on for a
 *  region and restore the previous state on exit. */
class ScopedEnable
{
  public:
    explicit ScopedEnable(bool on = true)
        : prev_(enabled())
    {
        Registry::instance().setEnabled(on);
    }
    ~ScopedEnable() { Registry::instance().setEnabled(prev_); }
    ScopedEnable(const ScopedEnable &) = delete;
    ScopedEnable &operator=(const ScopedEnable &) = delete;

  private:
    bool prev_;
};

} // namespace obs
} // namespace penelope

/** Handle memoized per call site (one static-init guard; fine for
 *  warm-but-not-hot paths -- hot loops keep member or file-scope
 *  handles instead). */
#define PENELOPE_OBS_COUNTER(name, unit)                           \
    ([]() -> const penelope::obs::Counter & {                      \
        static const penelope::obs::Counter c =                    \
            penelope::obs::Registry::instance().counter(name,      \
                                                        unit);     \
        return c;                                                  \
    }())

#define PENELOPE_OBS_HISTOGRAM(name, unit)                         \
    ([]() -> const penelope::obs::Histogram & {                    \
        static const penelope::obs::Histogram h =                  \
            penelope::obs::Registry::instance().histogram(name,    \
                                                          unit);   \
        return h;                                                  \
    }())

#endif // PENELOPE_OBS_METRICS_HH
