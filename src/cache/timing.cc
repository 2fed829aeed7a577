#include "timing.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/threadpool.hh"
#include "core/engine.hh"
#include "core/serialize.hh"

namespace penelope {

namespace {

/** One uop as the memory hierarchy sees it. */
struct MemRef
{
    MemKind kind = MemKind::Other;
    Addr addr = 0;
    Word data = 0;
};

/** Mix a cache-geometry description into a key (the name string is
 *  deliberately excluded: it never affects simulation). */
void
keyCacheConfig(CacheKeyBuilder &key, const CacheConfig &config)
{
    key.u32(config.sizeBytes)
        .u32(config.ways)
        .u32(config.lineBytes)
        .u32(static_cast<std::uint32_t>(config.replacement))
        .f64(config.writePortFreeProb);
}

/** Content hash of one trace's baseline-vs-mechanism pair. */
Hash128
memLossKey(const TraceSpec &spec, unsigned index,
           std::size_t uops_per_trace,
           const CacheConfig &dl0_config,
           const CacheConfig &dtlb_config,
           MechanismKind dl0_mechanism,
           MechanismKind dtlb_mechanism,
           const MemTimingParams &params, double time_scale)
{
    CacheKeyBuilder key("mem-loss");
    key.u32(index).u64(spec.seed).u64(uops_per_trace);
    keyCacheConfig(key, dl0_config);
    keyCacheConfig(key, dtlb_config);
    key.u32(static_cast<std::uint32_t>(dl0_mechanism))
        .u32(static_cast<std::uint32_t>(dtlb_mechanism))
        .f64(params.baseCpi)
        .u32(params.dl0MissPenalty)
        .u32(params.dtlbMissPenalty)
        .f64(time_scale);
    return key.digest();
}

/** Geometry equality as keyCacheConfig sees it: the name string is
 *  ignored, the write-port probability is compared bit for bit. */
bool
sameGeometry(const CacheConfig &a, const CacheConfig &b)
{
    return a.sizeBytes == b.sizeBytes && a.ways == b.ways &&
        a.lineBytes == b.lineBytes &&
        a.replacement == b.replacement &&
        std::bit_cast<std::uint64_t>(a.writePortFreeProb) ==
        std::bit_cast<std::uint64_t>(b.writePortFreeProb);
}

bool
testBit(const std::vector<std::uint64_t> &bits, std::size_t k)
{
    return (bits[k >> 6] >> (k & 63)) & 1;
}

void
setBit(std::vector<std::uint64_t> &bits, std::size_t k)
{
    bits[k >> 6] |= std::uint64_t(1) << (k & 63);
}

/** Clear @p record for @p mem_uops memory uops and log @p cache's
 *  tie evictions into it (no-op for a null record). */
void
beginRecord(Cache &cache, MissRecord *record, std::size_t mem_uops)
{
    if (!record)
        return;
    record->misses.assign((mem_uops + 63) / 64, 0);
    record->ties.clear();
    cache.logTieEvictions(&record->ties);
}

/** The records simulateStreamCells replays against: one per
 *  geometry of one side, from the first run that simulated it
 *  without a mechanism. */
struct SideRecord
{
    const CacheConfig *geometry;
    MissRecord record;
};

const MissRecord *
findRecord(const std::vector<SideRecord> &records,
           const CacheConfig &geometry)
{
    for (const SideRecord &r : records) {
        if (sameGeometry(*r.geometry, geometry))
            return &r.record;
    }
    return nullptr;
}

/** Whether replays may charge @p geometry's misses from a record:
 *  see simulateStreamCells. */
bool
replayable(const CacheConfig &geometry, const MemTimingParams &params)
{
    return params.baseCpi >= 0.5 &&
        geometry.replacement == ReplacementPolicy::Lru;
}

} // namespace

std::vector<MemLossSample>
simulateStreamCells(const MemStream &stream,
                    const std::vector<MemCell> &cells,
                    const MemTimingParams &params, double time_scale)
{
    std::vector<SideRecord> dl0_records;
    std::vector<SideRecord> dtlb_records;
    auto sim = [&](const MemCell &cell, MechanismKind dl0,
                   MechanismKind dtlb) {
        return MemTimingSim(cell.dl0, cell.dtlb, params, dl0, dtlb,
                            time_scale);
    };
    constexpr MechanismKind none = MechanismKind::None;

    // A geometry pair's cycles without mechanisms: replay the cache
    // not yet recorded (the DTLB if both are) against the other's
    // record, else run both; keep the records of new geometries.
    auto baseline = [&](const MemCell &cell) {
        const MissRecord *dl0 = findRecord(dl0_records, cell.dl0);
        const MissRecord *dtlb = findRecord(dtlb_records, cell.dtlb);
        MissRecord dl0_new;
        MissRecord dtlb_new;
        std::optional<MemSimResult> r;
        if (dl0) {
            r = sim(cell, none, none)
                    .replay(stream, MemSide::Dtlb, *dl0, &dtlb_new);
        } else if (dtlb) {
            r = sim(cell, none, none)
                    .replay(stream, MemSide::Dl0, *dtlb, &dl0_new);
        }
        if (!r)
            r = sim(cell, none, none).run(stream, &dl0_new, &dtlb_new);
        if (!dl0 && replayable(cell.dl0, params))
            dl0_records.push_back({&cell.dl0, std::move(dl0_new)});
        if (!dtlb && replayable(cell.dtlb, params))
            dtlb_records.push_back({&cell.dtlb, std::move(dtlb_new)});
        return r->cycles;
    };

    // A cell's run: a mechanism on one side replays that side alone
    // against the other side's record.
    auto mechanism = [&](const MemCell &cell) {
        const bool on_dl0 = cell.dtlbMechanism == none;
        if (on_dl0 != (cell.dl0Mechanism == none)) {
            const MissRecord *other = on_dl0
                ? findRecord(dtlb_records, cell.dtlb)
                : findRecord(dl0_records, cell.dl0);
            if (other) {
                if (const auto r =
                        sim(cell, cell.dl0Mechanism,
                            cell.dtlbMechanism)
                            .replay(stream,
                                    on_dl0 ? MemSide::Dl0
                                           : MemSide::Dtlb,
                                    *other))
                    return *r;
            }
        }
        return sim(cell, cell.dl0Mechanism, cell.dtlbMechanism)
            .run(stream);
    };

    struct Baseline
    {
        const MemCell *geometry;
        double cycles;
    };
    std::vector<Baseline> baselines;
    std::vector<MemLossSample> out(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const MemCell &cell = cells[c];
        auto base = std::find_if(
            baselines.begin(), baselines.end(),
            [&](const Baseline &b) {
                return sameGeometry(b.geometry->dl0, cell.dl0) &&
                    sameGeometry(b.geometry->dtlb, cell.dtlb);
            });
        if (base == baselines.end()) {
            baselines.push_back({&cell, baseline(cell)});
            base = baselines.end() - 1;
        }
        const MemSimResult rm = mechanism(cell);
        out[c].loss = rm.cycles / base->cycles - 1.0;
        out[c].normalizedCycles = rm.cycles / base->cycles;
        out[c].dl0InvertRatio = rm.dl0AvgInvertRatio;
        out[c].dtlbInvertRatio = rm.dtlbAvgInvertRatio;
    }
    return out;
}

const char *
mechanismName(MechanismKind kind)
{
    switch (kind) {
      case MechanismKind::None:
        return "Baseline";
      case MechanismKind::SetFixed50:
        return "SetFixed50%";
      case MechanismKind::WayFixed50:
        return "WayFixed50%";
      case MechanismKind::LineFixed50:
        return "LineFixed50%";
      case MechanismKind::LineDynamic60:
        return "LineDynamic60%";
    }
    return "?";
}

std::unique_ptr<InversionPolicy>
makeMechanism(MechanismKind kind, const CacheConfig &config,
              bool is_tlb, double time_scale)
{
    switch (kind) {
      case MechanismKind::None:
        return nullptr;
      case MechanismKind::SetFixed50:
        return std::make_unique<SetFixedInversion>(
            0.5, static_cast<Cycle>(10'000'000 * time_scale));
      case MechanismKind::WayFixed50:
        return std::make_unique<WayFixedInversion>(
            0.5, static_cast<Cycle>(10'000'000 * time_scale));
      case MechanismKind::LineFixed50:
        return std::make_unique<LineFixedInversion>(0.5);
      case MechanismKind::LineDynamic60: {
        DynamicInversionParams p;
        p.invertRatio = 0.6;
        p.warmupCycles =
            static_cast<Cycle>(200'000 * time_scale);
        p.testCycles = static_cast<Cycle>(200'000 * time_scale);
        p.periodCycles =
            static_cast<Cycle>(10'000'000 * time_scale);
        p.extraMissThreshold = is_tlb
            ? dtlbExtraMissThreshold(
                  config.sizeBytes / config.lineBytes)
            : dl0ExtraMissThreshold(config.sizeBytes);
        return std::make_unique<LineDynamicInversion>(p);
      }
    }
    return nullptr;
}

MemTimingSim::MemTimingSim(const CacheConfig &dl0_config,
                           const CacheConfig &dtlb_config,
                           const MemTimingParams &params,
                           MechanismKind dl0_mechanism,
                           MechanismKind dtlb_mechanism,
                           double time_scale)
    : params_(params), dl0_(dl0_config), dtlb_(dtlb_config)
{
    dl0_.setPolicy(
        makeMechanism(dl0_mechanism, dl0_config, false, time_scale));
    dtlb_.setPolicy(
        makeMechanism(dtlb_mechanism, dtlb_config, true,
                      time_scale));
}

MemStream
MemStream::generate(TraceGenerator &gen, std::size_t num_uops)
{
    PENELOPE_OBS_COUNTER("memsim.traces", "1").add();
    MemStream stream;
    stream.kinds.reserve(num_uops);
    for (std::size_t i = 0; i < num_uops; ++i) {
        const Uop uop = gen.next();
        if (!isMemory(uop.cls)) {
            stream.kinds.push_back(MemKind::Other);
            continue;
        }
        const bool is_write = uop.cls == UopClass::Store;
        stream.kinds.push_back(is_write ? MemKind::Store
                                        : MemKind::Load);
        stream.addrs.push_back(uop.addr);
        stream.data.push_back(is_write ? uop.srcVal1 : uop.dstVal);
    }
    return stream;
}

template <class Next>
MemSimResult
MemTimingSim::runLoop(std::size_t num_uops, Next &&next,
                      MissRecord *dl0_record, MissRecord *dtlb_record)
{
    PENELOPE_OBS_COUNTER("memsim.runs", "1").add();
    MemSimResult r;
    double cycles = 0.0;
    for (std::size_t i = 0; i < num_uops; ++i) {
        const MemRef ref = next();
        const Cycle now = static_cast<Cycle>(cycles);
        dl0_.tick(now);
        dtlb_.tick(now);
        cycles += params_.baseCpi;
        if (ref.kind != MemKind::Other) {
            const bool is_write = ref.kind == MemKind::Store;
            const AccessResult tlb =
                dtlb_.access(ref.addr, false, now, ref.addr >> 12);
            if (!tlb.hit) {
                cycles += params_.dtlbMissPenalty;
                if (dtlb_record)
                    setBit(dtlb_record->misses, r.memOps);
            }
            const AccessResult l1 =
                dl0_.access(ref.addr, is_write, now, ref.data);
            if (!l1.hit) {
                cycles += params_.dl0MissPenalty;
                if (dl0_record)
                    setBit(dl0_record->misses, r.memOps);
            }
            ++r.memOps;
        }
    }
    r.uops = num_uops;
    r.cycles = cycles;
    r.dl0Hits = dl0_.hits();
    r.dl0Misses = dl0_.misses();
    r.dtlbHits = dtlb_.hits();
    r.dtlbMisses = dtlb_.misses();
    const Cycle end = static_cast<Cycle>(cycles);
    r.dl0AvgInvertRatio = dl0_.averageInvertRatio(end);
    r.dtlbAvgInvertRatio = dtlb_.averageInvertRatio(end);
    return r;
}

MemSimResult
MemTimingSim::run(TraceGenerator &gen, std::size_t num_uops)
{
    return runLoop(num_uops, [&gen] {
        const Uop uop = gen.next();
        if (!isMemory(uop.cls))
            return MemRef{};
        const bool is_write = uop.cls == UopClass::Store;
        return MemRef{is_write ? MemKind::Store : MemKind::Load,
                      uop.addr, is_write ? uop.srcVal1 : uop.dstVal};
    });
}

MemSimResult
MemTimingSim::run(const MemStream &stream, MissRecord *dl0_record,
                  MissRecord *dtlb_record)
{
    beginRecord(dl0_, dl0_record, stream.addrs.size());
    beginRecord(dtlb_, dtlb_record, stream.addrs.size());
    std::size_t mem = 0;
    std::size_t i = 0;
    const MemSimResult r = runLoop(
        stream.size(),
        [&] {
            const MemKind kind = stream.kinds[i++];
            if (kind == MemKind::Other)
                return MemRef{};
            const MemRef ref{kind, stream.addrs[mem],
                             stream.data[mem]};
            ++mem;
            return ref;
        },
        dl0_record, dtlb_record);
    dl0_.logTieEvictions(nullptr);
    dtlb_.logTieEvictions(nullptr);
    return r;
}

std::optional<MemSimResult>
MemTimingSim::replay(const MemStream &stream, MemSide side,
                     const MissRecord &other, MissRecord *record)
{
    PENELOPE_OBS_COUNTER("memsim.side_runs", "1").add();
    // Registered before any fallback, so a dump shows a 0.
    const auto &fallbacks = PENELOPE_OBS_COUNTER("memsim.fallbacks", "1");
    assert(params_.baseCpi >= 0.5);
    const bool on_dl0 = side == MemSide::Dl0;
    Cache &cache = on_dl0 ? dl0_ : dtlb_;
    const std::size_t mem_uops = stream.addrs.size();
    beginRecord(cache, record, mem_uops);
    // Bit k: memory uops k - 1 and k share a cycle.
    std::vector<std::uint64_t> tied((mem_uops + 63) / 64, 0);
    std::uint64_t other_misses = 0;
    double cycles = 0.0;
    Cycle last = ~Cycle(0);
    std::size_t k = 0;
    for (const MemKind kind : stream.kinds) {
        const Cycle now = static_cast<Cycle>(cycles);
        cache.tick(now);
        cycles += params_.baseCpi;
        if (kind == MemKind::Other)
            continue;
        if (now == last)
            setBit(tied, k);
        last = now;
        const Addr addr = stream.addrs[k];
        const bool other_miss = testBit(other.misses, k);
        other_misses += other_miss;
        // Penalties in the two-cache loop's order: DTLB, then DL0.
        bool miss;
        if (on_dl0) {
            if (other_miss)
                cycles += params_.dtlbMissPenalty;
            miss = !dl0_.access(addr, kind == MemKind::Store, now,
                                stream.data[k])
                        .hit;
            if (miss)
                cycles += params_.dl0MissPenalty;
        } else {
            miss = !dtlb_.access(addr, false, now, addr >> 12).hit;
            if (miss)
                cycles += params_.dtlbMissPenalty;
            if (other_miss)
                cycles += params_.dl0MissPenalty;
        }
        if (record && miss)
            setBit(record->misses, k);
        ++k;
    }
    cache.logTieEvictions(nullptr);
    for (const TieEviction &e : other.ties) {
        if (testBit(tied, e.older + 1) != e.tied) {
            fallbacks.add();
            return std::nullopt;
        }
    }

    MemSimResult r;
    r.uops = stream.size();
    r.memOps = mem_uops;
    r.cycles = cycles;
    const Cycle end = static_cast<Cycle>(cycles);
    const double ratio = cache.averageInvertRatio(end);
    if (on_dl0) {
        r.dl0Hits = dl0_.hits();
        r.dl0Misses = dl0_.misses();
        r.dtlbHits = mem_uops - other_misses;
        r.dtlbMisses = other_misses;
        r.dl0AvgInvertRatio = ratio;
    } else {
        r.dl0Hits = mem_uops - other_misses;
        r.dl0Misses = other_misses;
        r.dtlbHits = dtlb_.hits();
        r.dtlbMisses = dtlb_.misses();
        r.dtlbAvgInvertRatio = ratio;
    }
    return r;
}

std::vector<std::vector<MemLossSample>>
simulateMemCells(const WorkloadSet &workload,
                 const std::vector<unsigned> &trace_indices,
                 std::size_t uops_per_trace,
                 const std::vector<MemCell> &cells,
                 const MemTimingParams &params, double time_scale,
                 unsigned jobs, ThreadPool *pool, ResultCache *cache)
{
    // One task per trace: every cell is looked up under its own
    // key, and the trace is generated only if some cell missed.
    const Engine engine(jobs, pool);
    return engine.mapVariantsCached<MemLossSample>(
        trace_indices, cells, cache,
        [&](unsigned index, const MemCell &cell, std::size_t) {
            return memLossKey(workload.spec(index), index,
                              uops_per_trace, cell.dl0, cell.dtlb,
                              cell.dl0Mechanism, cell.dtlbMechanism,
                              params, time_scale);
        },
        [&](unsigned index, std::size_t,
            const std::vector<MemCell> &missing) {
            TraceGenerator gen = workload.generator(index);
            return simulateStreamCells(
                MemStream::generate(gen, uops_per_trace), missing,
                params, time_scale);
        });
}

PerfLossStats
foldPerfLoss(const std::vector<MemLossSample> &samples,
             bool dl0_ratio)
{
    PerfLossStats stats;
    RunningStats loss;
    RunningStats ratio;
    unsigned above5 = 0;
    unsigned above10 = 0;
    for (const MemLossSample &r : samples) {
        loss.add(r.loss);
        ratio.add(dl0_ratio ? r.dl0InvertRatio : r.dtlbInvertRatio);
        if (r.loss > 0.05)
            ++above5;
        if (r.loss > 0.10)
            ++above10;
    }
    stats.meanLoss = loss.mean();
    stats.maxLoss = loss.count() ? loss.max() : 0.0;
    stats.meanInvertRatio = ratio.mean();
    stats.traces = static_cast<unsigned>(samples.size());
    if (stats.traces > 0) {
        stats.fracAbove5Pct =
            static_cast<double>(above5) / stats.traces;
        stats.fracAbove10Pct =
            static_cast<double>(above10) / stats.traces;
    }
    return stats;
}

double
meanNormalizedCycles(const std::vector<MemLossSample> &samples)
{
    RunningStats norm;
    for (const MemLossSample &r : samples)
        norm.add(r.normalizedCycles);
    return norm.mean();
}

PerfLossStats
measurePerfLoss(const WorkloadSet &workload,
                const std::vector<unsigned> &trace_indices,
                std::size_t uops_per_trace,
                const CacheConfig &dl0_config,
                const CacheConfig &dtlb_config,
                MechanismKind mechanism, bool apply_to_dl0,
                const MemTimingParams &params, double time_scale,
                unsigned jobs, ThreadPool *pool, ResultCache *cache)
{
    const MemCell cell{
        dl0_config, dtlb_config,
        apply_to_dl0 ? mechanism : MechanismKind::None,
        apply_to_dl0 ? MechanismKind::None : mechanism};
    return foldPerfLoss(
        simulateMemCells(workload, trace_indices, uops_per_trace,
                         {cell}, params, time_scale, jobs, pool,
                         cache)
            .front(),
        apply_to_dl0);
}

double
combinedNormalizedCpi(const WorkloadSet &workload,
                      const std::vector<unsigned> &trace_indices,
                      std::size_t uops_per_trace,
                      const CacheConfig &dl0_config,
                      const CacheConfig &dtlb_config,
                      MechanismKind mechanism,
                      const MemTimingParams &params,
                      double time_scale, unsigned jobs,
                      ThreadPool *pool, ResultCache *cache)
{
    const MemCell cell{dl0_config, dtlb_config, mechanism, mechanism};
    return meanNormalizedCycles(
        simulateMemCells(workload, trace_indices, uops_per_trace,
                         {cell}, params, time_scale, jobs, pool,
                         cache)
            .front());
}

} // namespace penelope
