#include "experiments.hh"

#include <algorithm>
#include <cassert>

#include "adder/adder.hh"
#include "core/engine.hh"
#include "core/serialize.hh"
#include "scheduler/profile.hh"

namespace penelope {

ExperimentOptions::ExperimentOptions()
    : memo_(std::make_shared<ResultCache>())
{
}

namespace {

/** The shardIndex-th round-robin slice of an evaluation set (the
 *  `--shard i/N` unit of scale-out). */
std::vector<unsigned>
shardSlice(std::vector<unsigned> traces,
           const ExperimentOptions &options)
{
    if (options.shardCount <= 1)
        return traces;
    std::vector<unsigned> slice;
    slice.reserve(traces.size() / options.shardCount + 1);
    for (std::size_t k = options.shardIndex; k < traces.size();
         k += options.shardCount)
        slice.push_back(traces[k]);
    return slice;
}

/** Content hash of one trace's register-file replay. */
Hash128
regfileReplayKey(const RegFileConfig &rf_config,
                 const RegReplayConfig &replay_config, bool isv,
                 std::size_t uops_per_trace,
                 std::uint64_t trace_seed, unsigned trace_index)
{
    CacheKeyBuilder key("regfile-replay");
    keyRegFileReplay(key, rf_config, replay_config, isv,
                     uops_per_trace);
    key.u64(trace_seed).u32(trace_index);
    return key.digest();
}

/** Mix a pipeline configuration into a key: every field that can
 *  steer the simulation, including the nested structure configs. */
void
keyPipelineConfig(CacheKeyBuilder &key, const PipelineConfig &cfg)
{
    key.u32(cfg.allocWidth)
        .u32(cfg.commitWidth)
        .u32(cfg.robEntries)
        .u32(cfg.rfWritePorts)
        .u32(static_cast<std::uint32_t>(cfg.adderPolicy))
        .f64(cfg.mispredictProb)
        .u32(cfg.redirectPenalty)
        .u32(cfg.loadHitLatency)
        .u32(cfg.dl0MissPenalty)
        .u32(cfg.dtlbMissPenalty);
    keySchedulerConfig(key, cfg.sched);
    keyRegFileConfig(key, cfg.intRf);
    keyRegFileConfig(key, cfg.fpRf);
    keyCacheConfig(key, cfg.dl0);
    keyCacheConfig(key, cfg.dtlb);
    key.u32(static_cast<std::uint32_t>(cfg.dl0Mechanism))
        .u32(static_cast<std::uint32_t>(cfg.dtlbMechanism))
        .f64(cfg.mechanismTimeScale)
        .b(cfg.intRfIsv)
        .b(cfg.fpRfIsv);
}

/** Content hash of one trace's full-pipeline run. */
Hash128
pipelineRunKey(const PipelineConfig &cfg,
               std::size_t uops_per_trace,
               std::uint64_t trace_seed, unsigned trace_index)
{
    CacheKeyBuilder key("pipeline-run");
    keyPipelineConfig(key, cfg);
    key.u64(uops_per_trace).u64(trace_seed).u32(trace_index);
    return key.digest();
}

/** The paper's 100-trace profiling sample (never sharded). */
std::vector<unsigned>
profilingSample(const WorkloadSet &workload,
                const ExperimentOptions &options)
{
    return workload.sampleIndices(
        std::min(options.profilingTraces, workload.size() / 2),
        0xbead);
}

} // namespace

std::vector<unsigned>
schedulerProfilingSubset(const WorkloadSet &workload,
                         const ExperimentOptions &options)
{
    const auto profiling_set = profilingSample(workload, options);
    std::vector<unsigned> subset;
    for (std::size_t i = 0; i < profiling_set.size();
         i += std::max<std::size_t>(1,
                                    profiling_set.size() / 20)) {
        subset.push_back(profiling_set[i]);
    }
    return subset;
}

std::vector<unsigned>
schedulerEvaluationTraces(const WorkloadSet &workload,
                          const ExperimentOptions &options)
{
    const auto complement =
        workload.complement(profilingSample(workload, options));
    std::vector<unsigned> eval_set;
    for (std::size_t i = 0; i < complement.size();
         i += std::max(1u, options.traceStride)) {
        eval_set.push_back(complement[i]);
    }
    return shardSlice(std::move(eval_set), options);
}

std::vector<unsigned>
evaluationTraces(const WorkloadSet &workload,
                 const ExperimentOptions &options)
{
    return shardSlice(
        workload.strided(std::max(1u, options.traceStride)),
        options);
}

namespace {

/** Short local alias used by the runners below. */
std::vector<unsigned>
evalTraces(const WorkloadSet &workload,
           const ExperimentOptions &options)
{
    return evaluationTraces(workload, options);
}

} // namespace

// -------------------------------------------------------------- adder

std::vector<OperandSample>
collectWorkloadAdderOperands(const WorkloadSet &workload,
                             const ExperimentOptions &options)
{
    const Engine engine(options.jobs, options.pool);
    const auto firsts = workload.firstPerSuite();
    const std::size_t per_suite =
        options.adderOperandSamples / std::max<std::size_t>(
            1, firsts.size());
    const auto chunks =
        engine.mapCached<std::vector<OperandSample>>(
            firsts, options.results(),
            [&](unsigned index, std::size_t) {
                CacheKeyBuilder key("adder-operands");
                key.u64(per_suite)
                    .u64(workload.spec(index).seed)
                    .u32(index);
                return key.digest();
            },
            [&](unsigned index, std::size_t) {
                TraceGenerator gen = workload.generator(index);
                return collectAdderOperands(gen, per_suite);
            });
    std::vector<OperandSample> operands;
    for (const auto &chunk : chunks)
        operands.insert(operands.end(), chunk.begin(),
                        chunk.end());
    return operands;
}

AdderExperimentResult
runAdderExperiment(const WorkloadSet &workload,
                   const ExperimentOptions &options)
{
    AdderExperimentResult result;
    const Engine engine(options.jobs, options.pool);

    LadnerFischerAdder adder(32);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    AdderAgingAnalysis analysis(adder, model);

    // Figure 4: sweep the 28 synthetic input pairs.
    result.pairSweep = analysis.sweepPairs();
    result.bestPair = analysis.bestPair();

    // Real-input aging: operands sampled across suites (cached,
    // one trace per suite -- see collectWorkloadAdderOperands).
    const auto operands =
        collectWorkloadAdderOperands(workload, options);
    const auto real_probs = analysis.zeroProbsForOperands(operands);
    result.baselineGuardband =
        analysis.baselineGuardband(real_probs);

    // Figure 5 scenarios (paper utilisations).
    for (double util : {0.30, 0.21, 0.11}) {
        result.scenarios.push_back(
            {util, analysis.scenarioGuardband(
                       real_probs, util, result.bestPair)});
    }

    // Adder utilisation from the pipeline, both policies, averaged
    // over one representative trace per suite.  Each trace runs its
    // own Pipeline; per-trace stats fold in suite order.
    const auto firsts = workload.firstPerSuite();
    for (const auto policy : {AdderAllocationPolicy::Priority,
                              AdderAllocationPolicy::Uniform}) {
        PipelineConfig cfg;
        cfg.adderPolicy = policy;
        const auto shards = engine.mapCached<PipelineStats>(
            firsts, options.results(),
            [&](unsigned index, std::size_t) {
                return pipelineRunKey(
                    cfg, options.uopsPerTrace / 4,
                    workload.spec(index).seed, index);
            },
            [&](unsigned index, std::size_t) {
                Pipeline pipe(cfg);
                TraceGenerator gen = workload.generator(index);
                return pipe.run(gen, options.uopsPerTrace / 4);
            });
        RunningStats util;
        RunningStats util_min;
        RunningStats util_max;
        for (const PipelineStats &s : shards) {
            double lo = 1.0;
            double hi = 0.0;
            for (unsigned a = 0; a < 4; ++a) {
                util.add(s.adderUtilization[a]);
                lo = std::min(lo, s.adderUtilization[a]);
                hi = std::max(hi, s.adderUtilization[a]);
            }
            util_min.add(lo);
            util_max.add(hi);
        }
        if (policy == AdderAllocationPolicy::Priority) {
            result.priorityUtilMin = util_min.mean();
            result.priorityUtilMax = util_max.mean();
        } else {
            result.uniformUtil = util.mean();
        }
    }

    // Metric at worst-case utilisation (Section 4.3: 1.24).
    result.efficiency = nbtiEfficiency(
        1.0, result.scenarios.front().guardband, 1.0);
    return result;
}

// ------------------------------------------------------ register file

namespace {

/** Figure 6's register file and its calibrated replay timing. */
struct RegFileSetup
{
    RegFileConfig rf;
    RegReplayConfig replay;
};

RegFileSetup
figure6Setup(bool fp)
{
    RegFileSetup setup;
    setup.rf.name = fp ? "FP-RF" : "INT-RF";
    setup.rf.numEntries = fp ? 64 : 128;
    setup.rf.width = fp ? 80 : 32;
    setup.replay.fp = fp;
    setup.replay.portFreeProb = fp ? 0.86 : 0.92;
    // Rename-to-commit depth calibrated so the free fractions land
    // near the paper's 54% (INT) / 69% (FP).
    setup.replay.commitDelay = fp ? 110 : 64;
    return setup;
}

} // namespace

std::vector<RegFileArm>
runRegFileArms(const WorkloadSet &workload, bool fp,
               const std::vector<bool> &isv_arms,
               const ExperimentOptions &options)
{
    const Engine engine(options.jobs, options.pool);
    const RegFileSetup setup = figure6Setup(fp);
    const auto shards = engine.mapVariantsCached<RegFileArm>(
        evalTraces(workload, options), isv_arms, options.results(),
        [&](unsigned index, bool isv, std::size_t) {
            return regfileReplayKey(setup.rf, setup.replay, isv,
                                    options.uopsPerTrace,
                                    workload.spec(index).seed, index);
        },
        [&](unsigned index, std::size_t,
            const std::vector<bool> &missing) {
            RegReplayConfig cfg = setup.replay;
            cfg.seed = mixSeed(setup.replay.seed, index);
            TraceGenerator gen = workload.generator(index);
            return replayRegFileArms(gen, options.uopsPerTrace,
                                     setup.rf, cfg, missing);
        });

    // Every trace ages its own register files; per arm, the per-bit
    // duty times merge in trace order into the aggregate bias.
    std::vector<RegFileArm> arms;
    for (const std::vector<RegFileArm> &per_trace : shards) {
        RegFileArm arm;
        arm.bias = BitBiasTracker(setup.rf.width);
        RunningStats free_frac;
        for (const RegFileArm &shard : per_trace) {
            arm.bias.merge(shard.bias);
            free_frac.add(shard.freeFraction);
            arm.isv.merge(shard.isv);
        }
        arm.freeFraction = free_frac.mean();
        arms.push_back(std::move(arm));
    }
    return arms;
}

RegFileExperimentResult
runRegFileExperiment(const WorkloadSet &workload, bool fp,
                     const ExperimentOptions &options)
{
    RegFileExperimentResult result;
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    result.name = figure6Setup(fp).rf.name;

    const auto arms =
        runRegFileArms(workload, fp, {false, true}, options);
    const RegFileArm &baseline = arms[0];
    const RegFileArm &isv = arms[1];
    result.baselineBias = baseline.bias.biasVector();
    result.baselineWorst = baseline.bias.maxWorstCaseStress();
    result.guardbandBaseline =
        model.guardbandForZeroProb(result.baselineWorst);
    result.freeFraction = baseline.freeFraction;
    result.isvBias = isv.bias.biasVector();
    result.isvWorst = isv.bias.maxWorstCaseStress();
    result.guardbandIsv = model.guardbandForZeroProb(result.isvWorst);
    result.isvStats = isv.isv;
    return result;
}

// ---------------------------------------------------------- scheduler

std::vector<SchedulerStress>
runSchedulerArms(const WorkloadSet &workload,
                 const std::vector<std::vector<BitDecision>> &arms,
                 const ExperimentOptions &options)
{
    const Engine engine(options.jobs, options.pool);
    const SchedReplayConfig replay_config;
    const auto shards = engine.mapVariantsCached<SchedulerStress>(
        schedulerEvaluationTraces(workload, options), arms,
        options.results(),
        [&](unsigned index, const std::vector<BitDecision> &decisions,
            std::size_t) {
            // The installed decisions are key material: a protected
            // replay's statistics depend on them.
            return schedulerReplayKey(
                SchedulerConfig(), replay_config,
                options.uopsPerTrace, decisions,
                workload.spec(index).seed, index);
        },
        [&](unsigned index, std::size_t,
            const std::vector<std::vector<BitDecision>> &missing) {
            SchedReplayConfig cfg = replay_config;
            cfg.seed = mixSeed(replay_config.seed, index);
            TraceGenerator gen = workload.generator(index);
            return replaySchedulerArms(gen, options.uopsPerTrace,
                                       SchedulerConfig(), cfg,
                                       missing);
        });

    std::vector<SchedulerStress> merged;
    for (const std::vector<SchedulerStress> &per_trace : shards) {
        if (per_trace.empty())
            return {};
        SchedulerStress arm = per_trace.front();
        for (std::size_t k = 1; k < per_trace.size(); ++k)
            arm.merge(per_trace[k]);
        merged.push_back(std::move(arm));
    }
    return merged;
}

SchedulerExperimentResult
runSchedulerExperiment(const WorkloadSet &workload,
                       const ExperimentOptions &options)
{
    SchedulerExperimentResult result;
    const GuardbandModel model = GuardbandModel::paperCalibrated();

    // Paper methodology: profile K on a subset of the 100-trace
    // profiling sample, with a shorter run per trace (K only needs
    // the aggregate occupancy/bias statistics)...
    const SchedulerProfile profile = profileScheduler(
        workload, schedulerProfilingSubset(workload, options),
        options.uopsPerTrace / 2, SchedulerConfig(),
        SchedReplayConfig(), options.jobs, options.pool,
        options.results());
    const auto decisions = decideProtection(profile.bits);
    result.techniques = summarizeDecisions(decisions);

    // ...then evaluate baseline and protected arms on the remaining
    // traces.
    const auto arms =
        runSchedulerArms(workload, {{}, decisions}, options);
    if (!arms.empty()) {
        result.baselineBias = arms[0].biasVector();
        result.baselineWorstFig8 = arms[0].worstFigure8Bias();
        result.protectedBias = arms[1].biasVector();
        result.protectedWorstFig8 = arms[1].worstFigure8Bias();
        result.occupancy = arms[1].occupancy();
    }

    result.guardband =
        model.guardbandForZeroProb(result.protectedWorstFig8);
    // TDP overhead: RINV + counters + timestamps < 2% (Section 4.5).
    result.efficiency =
        nbtiEfficiency(1.0, result.guardband, 1.02);
    return result;
}

// -------------------------------------------------------------- cache

Table3Result
runTable3Experiment(const WorkloadSet &workload,
                    const ExperimentOptions &options)
{
    Table3Result result;
    std::vector<Table3Row> &rows = result.rows;
    const auto traces = evalTraces(workload, options);

    auto add_dl0_row = [&](unsigned ways, unsigned kb) {
        Table3Row row;
        row.label = "DL0 " + std::to_string(ways) + "-way " +
            std::to_string(kb) + "KB";
        row.config.name = "DL0";
        row.config.sizeBytes = kb * 1024;
        row.config.ways = ways;
        rows.push_back(row);
    };
    auto add_tlb_row = [&](unsigned entries) {
        Table3Row row;
        row.label = "DTLB 8-way " + std::to_string(entries) +
            " ent.";
        row.isTlb = true;
        row.config = CacheConfig::tlb(entries, 8);
        rows.push_back(row);
    };

    add_dl0_row(8, 32);
    add_dl0_row(8, 16);
    add_dl0_row(8, 8);
    add_dl0_row(4, 32);
    add_dl0_row(4, 16);
    add_dl0_row(4, 8);
    add_tlb_row(128);
    add_tlb_row(64);
    add_tlb_row(32);

    const MechanismKind mechanisms[3] = {
        MechanismKind::SetFixed50, MechanismKind::LineFixed50,
        MechanismKind::LineDynamic60};

    const CacheConfig default_dl0 = CacheConfig();
    const CacheConfig default_dtlb = CacheConfig::tlb(128, 8);

    // Cells: row-major grid, then WayFixed, then combined CPI.
    std::vector<MemCell> cells;
    for (const Table3Row &row : rows) {
        for (const MechanismKind mechanism : mechanisms) {
            MemCell cell{row.isTlb ? default_dl0 : row.config,
                         row.isTlb ? row.config : default_dtlb};
            (row.isTlb ? cell.dtlbMechanism : cell.dl0Mechanism) =
                mechanism;
            cells.push_back(cell);
        }
    }
    const std::size_t way_fixed = cells.size();
    cells.push_back({default_dl0, default_dtlb,
                     MechanismKind::WayFixed50, MechanismKind::None});
    const std::size_t combined = cells.size();
    cells.push_back({default_dl0, default_dtlb,
                     MechanismKind::LineFixed50,
                     MechanismKind::LineFixed50});

    const auto samples = simulateMemCells(
        workload, traces, options.cacheUops, cells, MemTimingParams(),
        options.mechanismTimeScale, options.jobs, options.pool,
        options.results());

    std::size_t c = 0;
    for (Table3Row &row : rows) {
        for (unsigned m = 0; m < 3; ++m, ++c) {
            const PerfLossStats stats =
                foldPerfLoss(samples[c], !row.isTlb);
            row.loss[m] = stats.meanLoss;
            row.invertRatio[m] = stats.meanInvertRatio;
        }
    }
    result.wayFixedLoss =
        foldPerfLoss(samples[way_fixed], true).meanLoss;
    result.combinedCpi = meanNormalizedCycles(samples[combined]);
    return result;
}

// ---------------------------------------------------- processor (4.7)

ProcessorSummary
buildProcessorSummary(const AdderExperimentResult &adder,
                      const RegFileExperimentResult &int_rf,
                      const RegFileExperimentResult &fp_rf,
                      const SchedulerExperimentResult &scheduler,
                      const WorkloadSet &workload,
                      const ExperimentOptions &options)
{
    ProcessorSummary summary;

    // Combined CPI with both cache mechanisms active (the
    // cross-impact of the two mechanisms requires a joint run;
    // Section 4.2).  LineFixed50% is the paper's 4.7 configuration;
    // LineDynamic60% is the best Table-3 mechanism.
    // Both cells share one trace generation and one baseline.
    const CacheConfig dl0;
    const CacheConfig dtlb = CacheConfig::tlb(128, 8);
    const auto samples = simulateMemCells(
        workload, evalTraces(workload, options), options.cacheUops,
        {{dl0, dtlb, MechanismKind::LineFixed50,
          MechanismKind::LineFixed50},
         {dl0, dtlb, MechanismKind::LineDynamic60,
          MechanismKind::LineDynamic60}},
        MemTimingParams(), options.mechanismTimeScale, options.jobs,
        options.pool, options.results());
    summary.combinedCpi = meanNormalizedCycles(samples[0]);
    summary.combinedCpiDynamic = meanNormalizedCycles(samples[1]);

    // Per-block costs.  TDP factors are the paper's stated
    // overheads: RINV+timestamps <1% (RF), RINV+counters <2%
    // (scheduler), extra line + INVCOUNT <1% (DL0).
    const double worst_adder_guardband =
        adder.scenarios.empty() ? 0.074
                                : adder.scenarios.front().guardband;
    summary.blocks.push_back(
        {"adder", 1.0, worst_adder_guardband, 1.0, 1.0});
    summary.blocks.push_back(
        {"register file", 1.0,
         std::max(int_rf.guardbandIsv, fp_rf.guardbandIsv), 1.01,
         1.0});
    summary.blocks.push_back(
        {"scheduler", 1.0, scheduler.guardband, 1.02, 1.0});
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    summary.blocks.push_back(
        {"DL0", 1.0, model.balancedGuardband(), 1.01, 1.0});
    summary.blocks.push_back(
        {"DTLB", 1.0, model.balancedGuardband(), 1.0, 1.0});

    ProcessorCost cost(summary.combinedCpi);
    for (const auto &b : summary.blocks)
        cost.addBlock(b);
    summary.penelopeEfficiency = cost.efficiency();
    summary.maxGuardband = cost.guardband();

    ProcessorCost cost_dyn(summary.combinedCpiDynamic);
    for (const auto &b : summary.blocks)
        cost_dyn.addBlock(b);
    summary.penelopeEfficiencyDynamic = cost_dyn.efficiency();

    // Baseline: full 20% guardband everywhere, no mechanism.
    summary.baselineEfficiency = nbtiEfficiency(1.0, 0.20, 1.0);
    // Periodic inversion: 10% cycle-time hit, minimum guardband,
    // memory-like blocks only (Section 4.2: 1.41).
    summary.invertEfficiency =
        nbtiEfficiency(1.10, model.balancedGuardband(), 1.0);
    return summary;
}

PipelineSurvey
runPipelineSurvey(const WorkloadSet &workload,
                  const ExperimentOptions &options,
                  AdderAllocationPolicy policy)
{
    PipelineSurvey survey;
    PipelineConfig cfg;
    cfg.adderPolicy = policy;
    const Engine engine(options.jobs, options.pool);

    const auto shards = engine.mapCached<PipelineStats>(
        workload.firstPerSuite(), options.results(),
        [&](unsigned index, std::size_t) {
            return pipelineRunKey(cfg, options.uopsPerTrace / 2,
                                  workload.spec(index).seed,
                                  index);
        },
        [&](unsigned index, std::size_t) {
            Pipeline pipe(cfg);
            TraceGenerator gen = workload.generator(index);
            return pipe.run(gen, options.uopsPerTrace / 2);
        });

    RunningStats cpi;
    RunningStats sched_occ;
    RunningStats int_free;
    RunningStats fp_free;
    RunningStats int_port;
    RunningStats fp_port;
    RunningStats sched_port;
    RunningStats adder[4];
    RunningStats mru[3];

    for (const PipelineStats &s : shards) {
        cpi.add(s.cpi);
        sched_occ.add(s.schedOccupancy);
        int_free.add(1.0 - s.intRfOccupancy);
        fp_free.add(1.0 - s.fpRfOccupancy);
        int_port.add(s.intRfPortFree);
        fp_port.add(s.fpRfPortFree);
        sched_port.add(s.schedPortFree);
        for (unsigned a = 0; a < 4; ++a)
            adder[a].add(s.adderUtilization[a]);
        for (unsigned m = 0; m < 3; ++m)
            mru[m].add(s.mruHitFraction[m]);
    }

    survey.cpi = cpi.mean();
    survey.schedOccupancy = sched_occ.mean();
    survey.intRfFree = int_free.mean();
    survey.fpRfFree = fp_free.mean();
    survey.intRfPortFree = int_port.mean();
    survey.fpRfPortFree = fp_port.mean();
    survey.schedPortFree = sched_port.mean();
    for (unsigned a = 0; a < 4; ++a)
        survey.adderUtil[a] = adder[a].mean();
    for (unsigned m = 0; m < 3; ++m)
        survey.mruHitFraction[m] = mru[m].mean();
    return survey;
}

} // namespace penelope
