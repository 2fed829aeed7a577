#include "timing.hh"

#include <algorithm>
#include <bit>

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

/**
 * The missing cells of one trace: one stream, one baseline per
 * distinct geometry pair, and one mechanism run per cell.
 */
std::vector<MemLossSample>
simulateTraceCells(const WorkloadSet &workload, unsigned index,
                   std::size_t uops_per_trace,
                   const std::vector<MemCell> &cells,
                   const MemTimingParams &params, double time_scale)
{
    TraceGenerator gen = workload.generator(index);
    const MemStream stream = MemStream::generate(gen, uops_per_trace);

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
            MemTimingSim sim(cell.dl0, cell.dtlb, params,
                             MechanismKind::None, MechanismKind::None,
                             time_scale);
            baselines.push_back({&cell, sim.run(stream).cycles});
            base = baselines.end() - 1;
        }
        MemTimingSim mech(cell.dl0, cell.dtlb, params,
                          cell.dl0Mechanism, cell.dtlbMechanism,
                          time_scale);
        const MemSimResult rm = mech.run(stream);
        out[c].loss = rm.cycles / base->cycles - 1.0;
        out[c].normalizedCycles = rm.cycles / base->cycles;
        out[c].dl0InvertRatio = rm.dl0AvgInvertRatio;
        out[c].dtlbInvertRatio = rm.dtlbAvgInvertRatio;
    }
    return out;
}

} // namespace

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
MemTimingSim::runLoop(std::size_t num_uops, Next &&next)
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
            ++r.memOps;
            const bool is_write = ref.kind == MemKind::Store;
            const AccessResult tlb =
                dtlb_.access(ref.addr, false, now, ref.addr >> 12);
            if (!tlb.hit)
                cycles += params_.dtlbMissPenalty;
            const AccessResult l1 =
                dl0_.access(ref.addr, is_write, now, ref.data);
            if (!l1.hit)
                cycles += params_.dl0MissPenalty;
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
MemTimingSim::run(const MemStream &stream)
{
    std::size_t mem = 0;
    std::size_t i = 0;
    return runLoop(stream.size(), [&] {
        const MemKind kind = stream.kinds[i++];
        if (kind == MemKind::Other)
            return MemRef{};
        const MemRef ref{kind, stream.addrs[mem], stream.data[mem]};
        ++mem;
        return ref;
    });
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
            return simulateTraceCells(workload, index, uops_per_trace,
                                      missing, params, time_scale);
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
