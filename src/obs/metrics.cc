#include "obs/metrics.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace penelope {
namespace obs {
namespace {

/** One thread's slot array.  Only the owning thread writes; a
 *  scrape reads relaxed.  ~32 KiB apiece, reused via a free list
 *  when threads exit (shards must not leak with thread churn). */
struct Shard
{
    std::array<std::atomic<std::uint64_t>, kSlotCapacity> slots{};
};

struct MetricDef
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::string unit;
    std::uint32_t slot = kInvalidSlot; ///< shard base
};

struct State
{
    mutable std::mutex mutex;
    std::vector<MetricDef> defs;
    std::map<std::string, std::size_t, std::less<>> byName;
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Shard *> freeShards;
    /** Totals merged out of exited threads' shards. */
    std::array<std::uint64_t, kSlotCapacity> retired{};
    /** First unallocated shard slot (after the sink region). */
    std::uint32_t nextSlot = kHistSlots;
};

State &
state()
{
    static State s;
    return s;
}

/** Retires the calling thread's shard when the thread exits:
 *  merge its slots into the retired totals, zero it, and hand it
 *  to the free list for the next thread. */
struct ShardReaper
{
    Shard *shard = nullptr;

    ~ShardReaper()
    {
        if (shard == nullptr)
            return;
        State &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        for (std::size_t i = 0; i < kSlotCapacity; ++i) {
            s.retired[i] +=
                shard->slots[i].load(std::memory_order_relaxed);
            shard->slots[i].store(0, std::memory_order_relaxed);
        }
        s.freeShards.push_back(shard);
        detail::t_slots = nullptr;
        shard = nullptr;
    }
};

thread_local bool t_retired = false;

std::size_t
slotCount(MetricKind kind)
{
    return kind == MetricKind::Histogram ? kHistSlots : 1;
}

std::uint32_t
registerMetric(MetricKind kind, const std::string &name,
               const std::string &unit)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.byName.find(name);
    if (it != s.byName.end()) {
        const MetricDef &def = s.defs[it->second];
        if (def.kind != kind)
            std::abort(); // one name, one kind: a programming bug
        return def.slot;
    }
    MetricDef def;
    def.name = name;
    def.kind = kind;
    def.unit = unit;
    const std::size_t need = slotCount(kind);
    if (s.nextSlot + need > kSlotCapacity)
        std::abort();
    def.slot = s.nextSlot;
    s.nextSlot += static_cast<std::uint32_t>(need);
    s.byName.emplace(name, s.defs.size());
    s.defs.push_back(def);
    return def.slot;
}

} // namespace

namespace detail {

std::atomic<std::uint64_t> *
acquireShard()
{
    if (t_retired)
        return nullptr;
    State &s = state();
    Shard *shard = nullptr;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.freeShards.empty()) {
            shard = s.freeShards.back();
            s.freeShards.pop_back();
        } else {
            s.shards.push_back(std::make_unique<Shard>());
            shard = s.shards.back().get();
        }
    }
    // The reaper's destructor runs at thread exit, after which any
    // further emission from this thread is dropped (t_retired).
    static thread_local ShardReaper reaper;
    reaper.shard = shard;
    t_retired = false;
    t_slots = shard->slots.data();
    struct RetireFlag
    {
        ~RetireFlag() { t_retired = true; }
    };
    static thread_local RetireFlag flag;
    return t_slots;
}

} // namespace detail

std::uint64_t
monotonicMicros()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point base = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            clock::now() - base)
            .count());
}

const SnapshotMetric *
Snapshot::find(std::string_view name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
renderDump(const Snapshot &snap)
{
    std::string out;
    for (const auto &m : snap.metrics) {
        if (m.kind == MetricKind::Histogram) {
            out += "obs: " + m.name + ".count " +
                std::to_string(m.count()) + "\n";
            out += "obs: " + m.name + ".sum " +
                std::to_string(m.sum()) + " " + m.unit + "\n";
            continue;
        }
        out += "obs: " + m.name + " " + std::to_string(m.scalar());
        if (m.unit != "1")
            out += " " + m.unit;
        out.push_back('\n');
    }
    return out;
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Counter
Registry::counter(const std::string &name, const std::string &unit)
{
    return Counter(registerMetric(MetricKind::Counter, name, unit));
}

Histogram
Registry::histogram(const std::string &name, const std::string &unit)
{
    return Histogram(
        registerMetric(MetricKind::Histogram, name, unit));
}

void
Registry::setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

Snapshot
Registry::scrape() const
{
    State &s = state();
    std::array<std::uint64_t, kSlotCapacity> merged{};
    std::vector<MetricDef> defs;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        defs = s.defs;
        merged = s.retired;
        for (const auto &shard : s.shards)
            for (std::size_t i = 0; i < s.nextSlot; ++i)
                merged[i] += shard->slots[i].load(
                    std::memory_order_relaxed);
    }
    Snapshot snap;
    snap.metrics.reserve(defs.size());
    for (const auto &def : defs) {
        SnapshotMetric m;
        m.name = def.name;
        m.kind = def.kind;
        m.unit = def.unit;
        const std::size_t n = slotCount(def.kind);
        m.values.assign(merged.begin() + def.slot,
                        merged.begin() + def.slot + n);
        snap.metrics.push_back(std::move(m));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const SnapshotMetric &a, const SnapshotMetric &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
Registry::resetValuesForTest()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.retired.fill(0);
    for (const auto &shard : s.shards)
        for (auto &cell : shard->slots)
            cell.store(0, std::memory_order_relaxed);
}

std::size_t
Registry::shardCountForTest() const
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.shards.size();
}

} // namespace obs
} // namespace penelope
