/**
 * @file
 * The built-in experiment catalog: every figure/table of the
 * paper's evaluation, registered by name into the
 * ExperimentRegistry.  These runners used to be thirteen separate
 * benchmark binaries; they now share one `penelope_bench`
 * multiplexer, the parallel experiment engine, and this file.
 */

#include "registry.hh"

#include <algorithm>
#include <iostream>
#include <optional>
#include <ostream>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "adder/idle_inputs.hh"
#include "cache/branch_predictor.hh"
#include "circuit/aging.hh"
#include "common/table.hh"
#include "core/engine.hh"
#include "core/serialize.hh"
#include "core/surrogate_sweep.hh"
#include "nbti/long_term.hh"
#include "nbti/rd_model.hh"
#include "scheduler/profile.hh"
#include "scheduler/techniques.hh"
#include "trace/attack.hh"
#include "trace/suite.hh"

namespace penelope {

namespace {

void
printHeader(std::ostream &os, const std::string &title)
{
    os << "\n=== " << title << " ===\n\n";
}

// ------------------------------------------------------- Figure 1

void
runFig1(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    printHeader(os, "Figure 1: NIT under alternating stress/relax");

    RdModelParams params;
    params.kForward = 2.0e-6;
    params.kReverse = 2.0e-6;
    RdModel pmos(params);

    TextTable table({"phase", "t (hours)", "NIT / NITmax",
                     "dVTH (mV)", "rel. dVTH"});
    const double phase_hours = 250.0;
    const double phase_s = phase_hours * 3600.0;
    double t_hours = 0.0;
    for (int phase = 0; phase < 8; ++phase) {
        const bool stressing = (phase % 2) == 0;
        // Sample four points inside each phase.
        for (int s = 1; s <= 4; ++s) {
            pmos.observe(!stressing, phase_s / 4.0);
            t_hours += phase_hours / 4.0;
            table.addRow({stressing ? "stress" : "relax",
                          TextTable::num(t_hours, 0),
                          TextTable::num(pmos.fractionDegraded(), 4),
                          TextTable::num(pmos.vthShift() * 1000, 2),
                          TextTable::pct(pmos.relativeVthShift())});
        }
        table.addSeparator();
    }
    table.print(os);

    os << "\nExpected shape (paper Fig. 1): NIT rises during "
          "stress with decreasing slope,\nfalls during relax "
          "without ever reaching zero; the envelope keeps "
          "rising.\n";

    // Equilibrium linearity: the property behind the guardband map.
    TextTable eq({"zero-signal prob", "equilibrium NIT fraction"});
    for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        eq.addRow({TextTable::pct(alpha, 0),
                   TextTable::num(
                       RdModel::equilibriumFraction(alpha, params),
                       3)});
    }
    os << '\n';
    eq.print(os);

    // Lifetime extension from duty-cycle reduction (paper quotes at
    // least 4X from Alam; 10X VTH-shift reduction from [1]).
    LongTermModel lt;
    os << "\nLong-term model: end-of-life dVTH at 100% duty = "
       << TextTable::pct(lt.endOfLifeShift(1.0))
       << ", at 50% duty = "
       << TextTable::pct(lt.endOfLifeShift(0.5))
       << " (10X reduction [1])\n";
}

// ------------------------------------------------------- Figure 3

void
runFig3(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    printHeader(os, "Figure 3: technique decision surface");

    TextTable table({"occupancy", "bias0 (busy)", "technique", "K",
                     "expected bias after repair"});
    for (double occ : {0.10, 0.30, 0.50, 0.63, 0.75, 0.90, 1.00}) {
        for (double bias : {0.05, 0.25, 0.50, 0.75, 0.95}) {
            const BitDecision d = chooseTechnique(occ, bias);
            table.addRow(
                {TextTable::pct(occ, 0), TextTable::pct(bias, 0),
                 techniqueName(d.technique),
                 d.technique == Technique::All1K ||
                         d.technique == Technique::All0K
                     ? TextTable::pct(d.k, 0)
                     : std::string("-"),
                 TextTable::pct(expectedBias(d, occ, bias), 1)});
        }
        table.addSeparator();
    }
    table.print(os);

    os << "\nSituation III (occupancy x bias > 50%) cannot "
          "reach perfect balancing;\nALL1/ALL0 pins the idle "
          "value and the residual bias equals\noccupancy x "
          "bias, exactly the paper's 63.2% scheduler "
          "worst case.\n";
}

// ------------------------------------------------------- Figure 4

void
runFig4(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    printHeader(os,
                "Figure 4: narrow PMOS at 100% zero-signal "
                "probability per input pair");

    LadnerFischerAdder adder(32);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    AdderAgingAnalysis analysis(adder, model);

    os << "netlist: " << adder.netlist().numGates() << " gates, "
       << adder.netlist().numPmos() << " PMOS devices, depth "
       << adder.netlist().depth() << "\n\n";

    TextTable table({"pair", "% narrow @100% stress",
                     "paper reference"});
    const auto sweep = analysis.sweepPairs();
    const InputPair best = analysis.bestPair();
    for (const auto &entry : sweep) {
        std::string note;
        if (entry.pair == InputPair{0, 7})
            note = "paper's chosen pair (1+8)";
        if (entry.pair == best)
            note += note.empty() ? "measured best"
                                 : " / measured best";
        table.addRow({pairLabel(entry.pair),
                      TextTable::pct(
                          entry.narrowFullyStressedFraction),
                      note});
    }
    table.print(os);

    os << "\nMeasured best pair: " << pairLabel(best)
       << " (paper: 1+8; both belong to the family of pairs "
          "that alternate\nevery input rail, the property "
          "the paper's selection criterion captures)\n";

    // Ablations: other topologies under the same sweep.
    printHeader(os, "Ablation: best pair per adder topology");
    TextTable ab({"topology", "PMOS", "best pair",
                  "% narrow @100%"});
    RippleCarryAdder rc(32);
    KoggeStoneAdder ks(32);
    for (Adder *a : {static_cast<Adder *>(&adder),
                     static_cast<Adder *>(&rc),
                     static_cast<Adder *>(&ks)}) {
        AdderAgingAnalysis an(*a, model);
        const InputPair p = an.bestPair();
        const auto probs = an.zeroProbsForPair(p);
        const AgingSummary s = an.summarize(probs);
        ab.addRow({a->name(),
                   TextTable::count(a->netlist().numPmos()),
                   pairLabel(p),
                   TextTable::pct(s.narrowFullyStressedFraction)});
    }
    ab.print(os);
}

// ------------------------------------------------------- Figure 5

void
runFig5(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    printHeader(os, "Figure 5: adder guardband vs utilisation");

    const AdderExperimentResult r =
        runAdderExperiment(ctx.workload, ctx.options);

    TextTable table({"scenario", "measured guardband",
                     "paper guardband"});
    table.addRow({"real inputs (unprotected)",
                  TextTable::pct(r.baselineGuardband), "20%"});
    const char *paper_values[] = {"7.4%", "5.8%", "~4%"};
    unsigned i = 0;
    for (const auto &scenario : r.scenarios) {
        table.addRow(
            {"idle pair " + pairLabel(r.bestPair) + " @ " +
                 TextTable::pct(scenario.utilization, 0) +
                 " utilisation",
             TextTable::pct(scenario.guardband), paper_values[i]});
        ++i;
    }
    table.print(os);

    os << "\nAdder utilisation measured in the pipeline:\n"
       << "  priority allocation: "
       << TextTable::pct(r.priorityUtilMin, 1) << " .. "
       << TextTable::pct(r.priorityUtilMax, 1)
       << " (paper: 11% .. 30%)\n"
       << "  uniform allocation:  "
       << TextTable::pct(r.uniformUtil, 1) << " (paper: 21%)\n";

    os << "\nNBTIefficiency at worst-case (30%) utilisation: "
       << TextTable::num(r.efficiency)
       << " (paper: 1.24; baseline "
       << TextTable::num(nbtiEfficiency(1.0, 0.20, 1.0)) << ")\n";
}

// ------------------------------------------------------- Figure 6

void
printBiasSeries(std::ostream &os, const std::string &name,
                const RegFileExperimentResult &r)
{
    printHeader(os, "Figure 6 series: " + name + " bit bias");
    TextTable table({"bit", "baseline bias0", "ISV bias0"});
    for (std::size_t b = 0; b < r.baselineBias.size(); ++b) {
        // Print every bit for 32-bit files, every 4th for FP.
        if (r.baselineBias.size() > 40 && (b % 4) != 0)
            continue;
        table.addRow({TextTable::count(b + 1),
                      TextTable::pct(r.baselineBias[b], 1),
                      TextTable::pct(r.isvBias[b], 1)});
    }
    table.print(os);
}

void
runFig6(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const auto int_rf =
        runRegFileExperiment(ctx.workload, false, ctx.options);
    const auto fp_rf =
        runRegFileExperiment(ctx.workload, true, ctx.options);

    printBiasSeries(os, "INT register file (32 bits)", int_rf);
    printBiasSeries(os, "FP register file (80 bits)", fp_rf);

    printHeader(os, "Figure 6 summary");
    TextTable s({"metric", "measured", "paper"});
    s.addRow({"INT worst-case stress, baseline",
              TextTable::pct(int_rf.baselineWorst, 1), "89.9%"});
    s.addRow({"INT worst-case stress, ISV",
              TextTable::pct(int_rf.isvWorst, 1), "48.5% (+1.5%)"});
    s.addRow({"FP worst-case stress, baseline",
              TextTable::pct(fp_rf.baselineWorst, 1), "84.2%"});
    s.addRow({"FP worst-case stress, ISV",
              TextTable::pct(fp_rf.isvWorst, 1), "45.5% (+4.5%)"});
    s.addRow({"INT registers free",
              TextTable::pct(int_rf.freeFraction, 1), "54%"});
    s.addRow({"FP registers free",
              TextTable::pct(fp_rf.freeFraction, 1), "69%"});
    s.addRow({"INT guardband baseline -> ISV",
              TextTable::pct(int_rf.guardbandBaseline, 1) + " -> " +
                  TextTable::pct(int_rf.guardbandIsv, 1),
              "20% -> ~2-3.6%"});
    s.addRow({"FP guardband baseline -> ISV",
              TextTable::pct(fp_rf.guardbandBaseline, 1) + " -> " +
                  TextTable::pct(fp_rf.guardbandIsv, 1),
              "20% -> 3.6%"});
    s.print(os);

    const double guardband =
        std::max(int_rf.guardbandIsv, fp_rf.guardbandIsv);
    os << "\nNBTIefficiency (invert-at-release): "
       << TextTable::num(nbtiEfficiency(1.0, guardband, 1.01))
       << " (paper: 1.12; periodic inversion 1.41)\n";

    os << "ISV updates applied/discarded/skipped (INT): "
       << int_rf.isvStats.updatesApplied << "/"
       << int_rf.isvStats.updatesDiscarded << "/"
       << int_rf.isvStats.updatesSkipped << "\n";
}

// ------------------------------------------------------- Figure 8

void
runFig8(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const SchedulerExperimentResult r =
        runSchedulerExperiment(ctx.workload, ctx.options);

    printHeader(os, "Table 2: field layout and chosen techniques");
    TextTable fields({"field", "bits", "technique", "K range"});
    const FieldLayout &layout = fieldLayout();
    for (const auto &t : r.techniques) {
        const FieldSpec &spec = layout.spec(t.field);
        std::string k;
        if (t.maxK > 0.0) {
            k = TextTable::pct(t.minK, 0);
            if (t.maxK > t.minK)
                k += " .. " + TextTable::pct(t.maxK, 0);
        }
        fields.addRow({t.fieldName, TextTable::count(spec.width),
                       techniqueName(t.dominantTechnique), k});
    }
    fields.print(os);

    printHeader(os, "Figure 8: per-field worst bias towards 0");
    TextTable bias({"field", "baseline worst", "protected worst"});
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        if (!spec.inFigure8)
            continue;
        double base_worst = 0.5;
        double prot_worst = 0.5;
        for (unsigned b = 0; b < spec.width; ++b) {
            const double pb = r.baselineBias[spec.offset + b];
            const double pp = r.protectedBias[spec.offset + b];
            base_worst =
                std::max(base_worst, std::max(pb, 1.0 - pb));
            prot_worst =
                std::max(prot_worst, std::max(pp, 1.0 - pp));
        }
        bias.addRow({spec.name, TextTable::pct(base_worst, 1),
                     TextTable::pct(prot_worst, 1)});
    }
    bias.print(os);

    printHeader(os, "Figure 8 summary");
    TextTable s({"metric", "measured", "paper"});
    s.addRow({"scheduler occupancy",
              TextTable::pct(r.occupancy, 1), "63%"});
    s.addRow({"worst bias, baseline",
              TextTable::pct(r.baselineWorstFig8, 1), "~100%"});
    s.addRow({"worst bias, protected",
              TextTable::pct(r.protectedWorstFig8, 1), "63.2%"});
    s.addRow({"guardband", TextTable::pct(r.guardband, 1), "6.7%"});
    s.addRow({"NBTIefficiency", TextTable::num(r.efficiency),
              "1.24 (inverting: 1.41)"});
    s.print(os);
}

// -------------------------------------------------------- Table 1

void
runTable1(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const WorkloadSet &workload = ctx.workload;

    printHeader(os, "Table 1: workloads");
    TextTable table({"suite", "# traces", "description"});
    for (const auto &suite : allSuites()) {
        table.addRow({suite.name,
                      TextTable::count(suite.numTraces),
                      suite.description});
    }
    table.addSeparator();
    table.addRow({"total", TextTable::count(totalTraceCount()),
                  "(paper: 531)"});
    table.print(os);

    printHeader(os, "Measured per-suite trace characteristics");
    TextTable m({"suite", "load", "store", "branch", "fp",
                 "wss (KB)", "carry-in zero-prob"});
    for (const auto &suite : allSuites()) {
        const auto indices = workload.indicesForSuite(suite.id);
        TraceGenerator gen = workload.generator(indices.front());
        std::uint64_t counts[numUopClasses] = {};
        std::size_t n = ctx.options.uopsPerTrace / 4;
        for (std::size_t i = 0; i < n; ++i)
            ++counts[static_cast<unsigned>(gen.next().cls)];
        auto frac = [&](UopClass c) {
            return static_cast<double>(
                       counts[static_cast<unsigned>(c)]) /
                static_cast<double>(n);
        };
        // Carry-in bias from operand sampling (Section 1.1: the
        // adder carry-in is "0" more than 90% of the time).
        TraceGenerator gen2 = workload.generator(indices.front());
        const auto ops = collectAdderOperands(gen2, 2000);
        std::size_t zeros = 0;
        for (const auto &op : ops)
            if (!op.cin)
                ++zeros;
        m.addRow(
            {suite.name, TextTable::pct(frac(UopClass::Load), 1),
             TextTable::pct(frac(UopClass::Store), 1),
             TextTable::pct(frac(UopClass::Branch), 1),
             TextTable::pct(frac(UopClass::FpAdd) +
                                frac(UopClass::FpMul),
                            1),
             TextTable::num(
                 static_cast<double>(gen.params().wssBytes) /
                     1024.0,
                 0),
             ops.empty()
                 ? std::string("-")
                 : TextTable::pct(static_cast<double>(zeros) /
                                      ops.size(),
                                  1)});
    }
    m.print(os);
}

// -------------------------------------------------------- Table 3

void
runTable3(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const ExperimentOptions &options = ctx.options;

    printHeader(os,
                "Table 3: average performance loss per mechanism");
    const Table3Result result =
        runTable3Experiment(ctx.workload, options);
    const auto &rows = result.rows;

    TextTable table({"configuration", "SetFixed50%", "LineFixed50%",
                     "LineDynamic60%", "paper (S/L/D)"});
    const char *paper[] = {
        "0.75 / 0.53 / 0.45%", "1.30 / 1.14 / 0.69%",
        "1.60 / 1.60 / 0.96%", "0.83 / 0.67 / 0.45%",
        "1.29 / 1.50 / 0.78%", "1.73 / 2.31 / 1.02%",
        "0.32 / 0.34 / 0.14%", "0.55 / 0.47 / 0.32%",
        "1.31 / 1.18 / 0.97%"};
    unsigned i = 0;
    for (const auto &row : rows) {
        table.addRow({row.label, TextTable::pct(row.loss[0]),
                      TextTable::pct(row.loss[1]),
                      TextTable::pct(row.loss[2]),
                      i < 9 ? paper[i] : ""});
        ++i;
    }
    table.print(os);

    TextTable inv(
        {"configuration", "avg invert ratio (Set/Line/Dyn)"});
    for (const auto &row : rows) {
        inv.addRow({row.label,
                    TextTable::num(row.invertRatio[0], 2) + " / " +
                        TextTable::num(row.invertRatio[1], 2) +
                        " / " +
                        TextTable::num(row.invertRatio[2], 2)});
    }
    os << '\n';
    inv.print(os);

    // WayFixed ablation (described in Section 3.2.1, unmeasured).
    printHeader(os, "Ablation: WayFixed50% (paper describes, "
                    "does not measure)");
    TextTable wf({"configuration", "WayFixed50% loss"});
    wf.addRow(
        {"DL0 8-way 32KB", TextTable::pct(result.wayFixedLoss)});
    wf.print(os);

    // Combined CPI for Section 4.7.
    os << "\nCombined normalised CPI, LineFixed50% on DL0 + "
          "DTLB: "
       << TextTable::num(result.combinedCpi, 3)
       << " (paper: 1.007)\n";
}

// -------------------------------------------------------- Table 4

void
runTable4(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const WorkloadSet &workload = ctx.workload;
    const ExperimentOptions &options = ctx.options;

    // Section 4.2 worked examples (closed form, exact).
    printHeader(os, "Section 4.2: metric worked examples");
    TextTable ex({"design", "delay", "guardband", "TDP",
                  "NBTIefficiency", "paper"});
    ex.addRow({"baseline (pay 20% guardband)", "1.00", "20%",
               "1.00",
               TextTable::num(nbtiEfficiency(1.0, 0.20, 1.0)),
               "1.73"});
    ex.addRow({"periodic inversion (memory-like)", "1.10", "2%",
               "1.00",
               TextTable::num(nbtiEfficiency(1.10, 0.02, 1.0)),
               "1.41"});
    ex.print(os);

    // Run all block experiments.
    os << "\nrunning block experiments...\n";
    const auto adder = runAdderExperiment(workload, options);
    const auto int_rf =
        runRegFileExperiment(workload, false, options);
    const auto fp_rf =
        runRegFileExperiment(workload, true, options);
    const auto sched = runSchedulerExperiment(workload, options);
    const auto summary = buildProcessorSummary(
        adder, int_rf, fp_rf, sched, workload, options);

    printHeader(os, "Per-block summary (Sections 4.3-4.6)");
    TextTable blocks({"block", "cycle time", "guardband", "TDP",
                      "NBTIefficiency", "paper"});
    const char *paper_eff[] = {"1.24", "1.12", "1.24", "1.09",
                               "~1.09"};
    unsigned i = 0;
    for (const auto &b : summary.blocks) {
        blocks.addRow({b.name, TextTable::num(b.cycleTimeFactor, 2),
                       TextTable::pct(b.guardband, 1),
                       TextTable::num(b.tdpFactor, 2),
                       TextTable::num(nbtiEfficiency(b)),
                       i < 5 ? paper_eff[i] : ""});
        ++i;
    }
    blocks.print(os);

    printHeader(os,
                "Section 4.7: processor roll-up (equations 2-4)");
    ProcessorCost cost(summary.combinedCpi);
    for (const auto &b : summary.blocks)
        cost.addBlock(b);
    TextTable proc({"quantity", "measured", "paper"});
    proc.addRow({"combined CPI (LineFixed50% DL0+DTLB)",
                 TextTable::num(summary.combinedCpi, 3), "1.007"});
    proc.addRow({"combined CPI (LineDynamic60% DL0+DTLB)",
                 TextTable::num(summary.combinedCpiDynamic, 3),
                 "(best Table-3 mechanism)"});
    proc.addRow({"processor delay (eq. 2)",
                 TextTable::num(cost.delay(), 3), "1.007"});
    proc.addRow({"processor TDP (eq. 3)",
                 TextTable::num(cost.tdp(), 3), "1.01"});
    proc.addRow({"processor guardband (eq. 4)",
                 TextTable::pct(cost.guardband(), 1), "7.4%"});
    proc.print(os);

    printHeader(os, "Headline: NBTIefficiency");
    TextTable head({"design", "measured", "paper"});
    head.addRow({"baseline (full guardbands)",
                 TextTable::num(summary.baselineEfficiency),
                 "1.73"});
    head.addRow({"periodic inversion",
                 TextTable::num(summary.invertEfficiency), "1.41"});
    head.addRow({"Penelope (caches: LineFixed50%)",
                 TextTable::num(summary.penelopeEfficiency),
                 "1.28"});
    head.addRow({"Penelope (caches: LineDynamic60%)",
                 TextTable::num(summary.penelopeEfficiencyDynamic),
                 "1.28"});
    head.print(os);

    os << "\nNote: our synthetic trace population stresses "
          "the caches harder than the\npaper's under "
          "LineFixed50% (README: Known deviations); with the "
          "paper's own best\nmechanism (LineDynamic60%) the "
          "ordering Penelope < inverting < baseline\n"
          "reproduces.\n";

    os << "\nmax guardband across blocks: "
       << TextTable::pct(summary.maxGuardband, 1)
       << " (paper: 7.4%, the adder)\n"
       << "guardband reductions span "
       << TextTable::pct(0.20 - summary.maxGuardband, 1) << " .. "
       << TextTable::pct(0.20 - GuardbandModel::paperCalibrated()
                                    .balancedGuardband(),
                         1)
       << " (paper: 12.6% .. 18%)\n";
}

// --------------------------------------------------- Section 1.1

void
runSec11(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const WorkloadSet &workload = ctx.workload;
    const ExperimentOptions &options = ctx.options;

    printHeader(os, "Section 1.1: data bias motivation");

    // Carry-in bias across suites.
    RunningStats cin_zero;
    for (unsigned index : workload.firstPerSuite()) {
        TraceGenerator gen = workload.generator(index);
        const auto ops = collectAdderOperands(gen, 2000);
        std::size_t zeros = 0;
        for (const auto &op : ops)
            if (!op.cin)
                ++zeros;
        if (!ops.empty())
            cin_zero.add(static_cast<double>(zeros) / ops.size());
    }

    // Register-file bias range: Figure 6's INT baseline arm only.
    const auto int_rf =
        runRegFileArms(workload, false, {false}, options);
    double bias_min = 1.0;
    double bias_max = 0.0;
    for (double b : int_rf.front().bias.biasVector()) {
        bias_min = std::min(bias_min, b);
        bias_max = std::max(bias_max, b);
    }

    // Scheduler worst fields: Figure 8's unprotected arm only (no
    // profiling pass; no decisions are printed here).
    const std::vector<std::vector<BitDecision>> unprotected(1);
    const auto sched =
        runSchedulerArms(workload, unprotected, options);
    const double sched_worst =
        sched.empty() ? 0.0 : sched.front().worstFigure8Bias();

    // Pipeline survey: MRU positions, occupancies, ports.
    const auto survey = runPipelineSurvey(workload, options);

    TextTable table({"observation", "measured", "paper"});
    table.addRow({"adder carry-in zero probability",
                  TextTable::pct(cin_zero.mean(), 1), "> 90%"});
    table.addRow({"INT register file per-bit zero-prob range",
                  TextTable::pct(bias_min, 1) + " .. " +
                      TextTable::pct(bias_max, 1),
                  "65% .. 90%"});
    table.addRow({"scheduler worst field bias (baseline)",
                  TextTable::pct(sched_worst, 1),
                  "almost 100%"});
    table.addRow({"DL0 hits at MRU position",
                  TextTable::pct(survey.mruHitFraction[0], 1),
                  "90%"});
    table.addRow({"DL0 hits at MRU+1",
                  TextTable::pct(survey.mruHitFraction[1], 1),
                  "7%"});
    table.addRow({"DL0 hits elsewhere",
                  TextTable::pct(survey.mruHitFraction[2], 1),
                  "3%"});
    table.print(os);

    printHeader(os, "Pipeline survey (inputs to Sections 4.4-4.5)");
    TextTable p({"statistic", "measured", "paper"});
    p.addRow({"CPI (uniform policy)", TextTable::num(survey.cpi, 2),
              "-"});
    p.addRow({"scheduler occupancy",
              TextTable::pct(survey.schedOccupancy, 1), "63%"});
    p.addRow({"INT registers free",
              TextTable::pct(survey.intRfFree, 1), "54%"});
    p.addRow({"FP registers free",
              TextTable::pct(survey.fpRfFree, 1), "69%"});
    p.addRow({"INT RF port free at release",
              TextTable::pct(survey.intRfPortFree, 1), "92%"});
    p.addRow({"FP RF port free at release",
              TextTable::pct(survey.fpRfPortFree, 1), "86%"});
    p.addRow({"allocate port free at sched release",
              TextTable::pct(survey.schedPortFree, 1), "77%"});
    p.print(os);
}

// ------------------------------------------------------ ablations

void
runAblations(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const WorkloadSet &workload = ctx.workload;
    const ExperimentOptions &options = ctx.options;

    // ------------------------------------------- 1. input policies
    printHeader(os, "Ablation 1: adder idle-input selection policy");
    LadnerFischerAdder adder(32);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    AdderAgingAnalysis analysis(adder, model);
    TraceGenerator gen = workload.generator(0);
    const auto operands =
        collectAdderOperands(gen, options.adderOperandSamples);
    const auto real = analysis.zeroProbsForOperands(operands);
    const InputPair best = analysis.bestPair();

    TextTable t1({"policy", "guardband @21% utilisation"});
    t1.addRow({"no idle injection (baseline)",
               TextTable::pct(analysis.baselineGuardband(real))});
    {
        // Single idle input: the same transistors stress all idle
        // time; mixing happens only against real inputs.
        const auto single =
            analysis.zeroProbsForInput(best.first);
        std::vector<double> mixed(single.size());
        for (std::size_t i = 0; i < mixed.size(); ++i)
            mixed[i] = 0.21 * real[i] + 0.79 * single[i];
        t1.addRow({"single idle input " +
                       std::to_string(best.first + 1),
                   TextTable::pct(
                       analysis.summarize(mixed).guardband)});
    }
    t1.addRow({"round-robin pair " + pairLabel(best),
               TextTable::pct(
                   analysis.scenarioGuardband(real, 0.21, best))});
    {
        // Four-input rotation: 1, 8 and the complements 4, 5.
        const auto quad =
            analysis.zeroProbsForInputs({0u, 7u, 3u, 4u});
        std::vector<double> mixed(quad.size());
        for (std::size_t i = 0; i < mixed.size(); ++i)
            mixed[i] = 0.21 * real[i] + 0.79 * quad[i];
        t1.addRow({"four-input rotation 1/8/4/5",
                   TextTable::pct(
                       analysis.summarize(mixed).guardband)});
    }
    t1.print(os);

    // --------------------------------------- 2. guardband mapping
    printHeader(os, "Ablation 2: calibrated map vs RD-model map");
    TextTable t2({"zero-signal prob", "calibrated linear",
                  "RD equilibrium x 20%"});
    for (double p : {0.5, 0.6, 0.75, 0.9, 1.0}) {
        t2.addRow({TextTable::pct(p, 0),
                   TextTable::pct(model.guardbandForZeroProb(p)),
                   TextTable::pct(
                       0.20 * RdModel::equilibriumFraction(p))});
    }
    t2.print(os);
    os << "The RD equilibrium is linear in duty cycle, the "
          "same family as the paper's\ncalibration; the "
          "calibrated map just fixes the 2% floor at "
          "p=0.5.\n";

    // ------------------------------------ 3. ISV port sensitivity
    printHeader(os,
                "Ablation 3: ISV sensitivity to port availability");
    TextTable t3({"port-free probability", "worst stress with ISV"});
    for (double port : {1.0, 0.92, 0.5, 0.2}) {
        RegFileConfig cfg;
        cfg.numEntries = 128;
        cfg.width = 32;
        RegisterFile rf(cfg);
        rf.enableIsv(true);
        RegReplayConfig rc;
        rc.portFreeProb = port;
        RegFileReplay replay(rf, rc);
        TraceGenerator g = workload.generator(3);
        const RegReplayResult r =
            replay.run(g, options.uopsPerTrace);
        t3.addRow({TextTable::pct(port, 0),
                   TextTable::pct(
                       rf.finalizeBias(r.cycles)
                           .maxWorstCaseStress(),
                       1)});
    }
    t3.print(os);
    os << "At the paper's 92% availability the balance is "
          "indistinguishable from ideal\n(discarding the "
          "rare blocked update is negligible); only far "
          "lower availability\nstarts to erode it.\n";

    // ------------------------------------- 4. branch predictor
    printHeader(os, "Ablation 4: NBTI-aware branch predictor "
                    "(cache-like, unmeasured in the paper)");
    TextTable t4({"invert ratio", "accuracy", "worst counter-bit "
                                              "stress"});
    for (double ratio : {0.0, 0.25, 0.5}) {
        BranchPredictorConfig cfg;
        cfg.tableEntries = 4096;
        cfg.invertRatio = ratio;
        cfg.rotatePeriod = 2000;
        BranchPredictor bp(cfg);
        TraceGenerator g = workload.generator(5);
        Cycle now = 0;
        std::uint64_t pc_seq = 0;
        for (std::size_t i = 0; i < options.uopsPerTrace; ++i) {
            const Uop uop = g.next();
            ++now;
            bp.tick(now);
            if (uop.cls != UopClass::Branch)
                continue;
            const Addr pc = 0x8000 + (pc_seq++ % 1024) * 4;
            bp.predictAndTrain(pc, uop.taken, now);
        }
        t4.addRow({TextTable::pct(ratio, 0),
                   TextTable::pct(bp.stats().accuracy(), 1),
                   TextTable::pct(
                       bp.finalizeBias(now).maxWorstCaseStress(),
                       1)});
    }
    t4.print(os);
}

// --------------------------------------------------- wearout attack

/** One adversarial scheduler replay to schedule on the engine. */
struct AttackRun
{
    const char *label;
    AttackConfig attack;

    /** Replay seed stream: the unprotected and protected arms of a
     *  variant replay in lockstep on it, so their comparison is
     *  seed-controlled (the same arrival and residence draws), just
     *  as the Figure-8 runner does per trace. */
    unsigned id;
};

/** Per-replay shard of the register-file attack arms (and their
 *  normal-workload reference): the aggregated per-bit bias. */
struct RfAttackShard
{
    BitBiasTracker bias{1};
    double freeFraction = 0.0;
};

void
encodeResult(ByteWriter &w, const RfAttackShard &shard)
{
    encodeResult(w, shard.bias);
    w.f64(shard.freeFraction);
}

bool
decodeResult(ByteReader &r, RfAttackShard &shard)
{
    if (!decodeResult(r, shard.bias))
        return false;
    shard.freeFraction = r.f64();
    return r.ok();
}

/** Content hash of one normal-workload register-file reference
 *  replay of the attack experiment. */
Hash128
regfileNormalKey(const RegFileConfig &rf_config,
                 const RegReplayConfig &replay_config, bool isv,
                 std::size_t uops, std::uint64_t trace_seed,
                 unsigned trace_index)
{
    CacheKeyBuilder key("regfile-attack-normal");
    keyRegFileReplay(key, rf_config, replay_config, isv, uops);
    key.u64(trace_seed).u32(trace_index);
    return key.digest();
}

/** Content hash of one adversarial register-file replay. */
Hash128
regfileAttackKey(const RegFileConfig &rf_config,
                 const RegReplayConfig &replay_config, bool isv,
                 std::size_t uops, const AttackConfig &attack,
                 unsigned run_id)
{
    CacheKeyBuilder key("regfile-attack");
    keyRegFileReplay(key, rf_config, replay_config, isv, uops);
    key.u32(run_id)
        .u64(attack.dataValue)
        .u32(attack.hotRegs)
        .u32(attack.branchPeriod)
        .b(attack.taken);
    return key.digest();
}

/** Fraction of bit positions pinned essentially flat at one rail
 *  (worst-case stress >= 99.99%). */
double
pinnedBitFraction(const BitBiasTracker &bias)
{
    unsigned pinned = 0;
    for (unsigned b = 0; b < bias.width(); ++b) {
        if (bias.worstCaseStress(b) >= 0.9999)
            ++pinned;
    }
    return static_cast<double>(pinned) /
        static_cast<double>(bias.width());
}

/** Content hash of one adversarial replay (the attack stream has
 *  no trace identity; the attack configuration takes its place). */
Hash128
attackReplayKey(const SchedReplayConfig &replay_config,
                std::size_t uops,
                const std::vector<BitDecision> &decisions,
                const AttackRun &run)
{
    CacheKeyBuilder key("sched-attack");
    keySchedReplayConfig(key, replay_config);
    key.u64(uops).u32(run.id);
    keyAttackConfig(key, run.attack);
    key.b(!decisions.empty()); // protected arm
    keyDecisions(key, decisions);
    return key.digest();
}

/** Per-field worst bias towards either rail, Figure-8 fields. */
std::vector<double>
fieldWorstBias(const std::vector<double> &bias)
{
    const FieldLayout &layout = fieldLayout();
    std::vector<double> out;
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        double worst = 0.5;
        for (unsigned bit = 0; bit < spec.width; ++bit) {
            const double p = bias[spec.offset + bit];
            worst = std::max(worst, std::max(p, 1.0 - p));
        }
        out.push_back(worst);
    }
    return out;
}

void
runAttack(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const ExperimentOptions &options = ctx.options;
    const WorkloadSet &workload = ctx.workload;
    const Engine engine(options.jobs, options.pool);
    const GuardbandModel model = GuardbandModel::paperCalibrated();

    printHeader(os, "Wearout attack: adversarial scheduler-field "
                    "stress");

    // The deployed protection: decisions profiled on the normal
    // workload, exactly as Figure 8 deploys them.  The attacker
    // does not get to choose them.
    const auto profile_subset =
        schedulerProfilingSubset(workload, options);
    const SchedulerProfile profile = profileScheduler(
        workload, profile_subset, options.uopsPerTrace / 2,
        SchedulerConfig(), SchedReplayConfig(), options.jobs,
        options.pool, options.results());
    const auto decisions = decideProtection(profile.bits);
    // Arm 0 unprotected, arm 1 under the deployed protection.
    const std::vector<std::vector<BitDecision>> arms = {{}, decisions};
    const std::vector<std::vector<BitDecision>> unprotected(1);

    // Normal-workload reference: one trace per suite, unprotected.
    const SchedReplayConfig normal_replay;
    const auto normal_shards = engine.mapCached<SchedulerStress>(
        workload.firstPerSuite(), options.results(),
        [&](unsigned index, std::size_t) {
            return schedulerReplayKey(
                SchedulerConfig(), normal_replay,
                options.uopsPerTrace, unprotected.front(),
                workload.spec(index).seed, index);
        },
        [&](unsigned index, std::size_t) {
            SchedReplayConfig cfg = normal_replay;
            cfg.seed = mixSeed(normal_replay.seed, index);
            TraceGenerator gen = workload.generator(index);
            return replaySchedulerArms(gen, options.uopsPerTrace,
                                       SchedulerConfig(), cfg,
                                       unprotected)
                .front();
        });
    SchedulerStress normal = normal_shards.front();
    for (std::size_t k = 1; k < normal_shards.size(); ++k)
        normal.merge(normal_shards[k]);

    // Attack variants: each pins every targeted field to one
    // value; the dispatch rate is raised so the scheduler stays
    // saturated (occupancy, and with it duty, is the attacker's
    // lever).
    AttackConfig zeros;
    AttackConfig ones;
    ones.dataValue = 0xffffffffULL;
    ones.imm = 0xffff;
    ones.flags = 0x3f;
    ones.taken = true;
    AttackConfig alternating;
    alternating.dataValue = 0xaaaaaaaaULL;
    alternating.imm = 0xaaaa;

    SchedReplayConfig attack_replay;
    attack_replay.arrivalRate = 4.0;

    const std::pair<const char *, AttackConfig> variants[] = {
        {"all-zeros", zeros},
        {"all-ones", ones},
        {"alternating", alternating}};
    std::vector<AttackRun> runs;
    unsigned variant_id = 0;
    for (const auto &[label, attack] : variants)
        runs.push_back({label, attack, variant_id++});

    // stresses[arm][variant]
    const auto stresses = engine.mapVariantsCached<SchedulerStress>(
        runs, arms, options.results(),
        [&](const AttackRun &run,
            const std::vector<BitDecision> &arm, std::size_t) {
            return attackReplayKey(attack_replay,
                                   options.uopsPerTrace, arm, run);
        },
        [&](const AttackRun &run, std::size_t,
            const std::vector<std::vector<BitDecision>> &missing) {
            SchedReplayConfig cfg = attack_replay;
            cfg.seed = mixSeed(attack_replay.seed, run.id);
            AttackTraceGenerator gen(run.attack);
            return replaySchedulerArms(gen, options.uopsPerTrace,
                                       SchedulerConfig(), cfg,
                                       missing);
        });

    // Per-field bias, Figure-6/8 style: the normal workload next
    // to the strongest attack, unprotected and protected.
    const FieldLayout &layout = fieldLayout();
    const auto normal_worst = fieldWorstBias(normal.biasVector());
    const auto attacked_worst =
        fieldWorstBias(stresses[0][0].biasVector());
    const auto protected_worst =
        fieldWorstBias(stresses[1][0].biasVector());
    TextTable fields({"field", "normal worst", "all-zeros attack",
                      "attack vs protection"});
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        if (!spec.inFigure8)
            continue;
        fields.addRow({spec.name,
                       TextTable::pct(normal_worst[f], 1),
                       TextTable::pct(attacked_worst[f], 1),
                       TextTable::pct(protected_worst[f], 1)});
    }
    fields.print(os);

    printHeader(os, "Attack summary");
    TextTable s({"stream", "occupancy", "worst bias",
                 "worst bias (protected)", "guardband",
                 "guardband (protected)"});
    s.addRow({"normal workload",
              TextTable::pct(normal.occupancy(), 1),
              TextTable::pct(normal.worstFigure8Bias(), 1), "-",
              TextTable::pct(model.guardbandForZeroProb(
                  normal.worstFigure8Bias())),
              "-"});
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const SchedulerStress &unprot = stresses[0][k];
        const SchedulerStress &prot = stresses[1][k];
        s.addRow(
            {runs[k].label,
             TextTable::pct(unprot.occupancy(), 1),
             TextTable::pct(unprot.worstFigure8Bias(), 1),
             TextTable::pct(prot.worstFigure8Bias(), 1),
             TextTable::pct(model.guardbandForZeroProb(
                 unprot.worstFigure8Bias())),
             TextTable::pct(model.guardbandForZeroProb(
                 prot.worstFigure8Bias()))});
    }
    s.print(os);

    os << "\nThe adversarial stream pins every targeted field to "
          "one value at saturated\noccupancy, driving duty "
          "cycles towards occupancy x 100% (the wearout-attack\n"
          "threat model).  The deployed (normal-profile) "
          "protection rebalances the\ncapture fields it can "
          "repair (SRC1/SRC2 data) but cannot help fields the\n"
          "attack keeps live in every slot -- the immediate, and "
          "the control fields\nwhose K% duty factors were tuned "
          "on the normal profile -- which is exactly\nthe "
          "exposure the wearout-attack literature points at: "
          "profile-time decisions\nversus run-time adversaries.\n";

    // ------------------------------------------ adder carry chain
    printHeader(os, "Adder wearout attack: constant-operand "
                    "streams");

    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder, model);
    const InputPair best_pair = analysis.bestPair();

    // Normal-workload reference operands: the same cached
    // collection as the Figure-5 runner, so warm runs share its
    // entries.
    const auto normal_ops =
        collectWorkloadAdderOperands(workload, options);

    // Fraction of wide (carry-merge) PMOS at 100% zero-signal
    // probability: the carry chain is exactly what a constant
    // stream pins, and what the narrow-only Figure-4 metric never
    // shows.
    const auto wide_fully_stressed =
        [&](const std::vector<double> &probs) {
            return analysis.wideFullyStressedFraction(probs);
        };

    struct AdderStream
    {
        const char *label;
        OperandSample op;
    };
    const AdderStream streams[] = {
        {"zero operands (0 + 0, cin 0)", {0, 0, false}},
        {"ones operands (~0 + ~0, cin 1)",
         {0xffffffffu, 0xffffffffu, true}},
        {"alternating operands (0xaa.. + 0x55.., cin 0)",
         {0xaaaaaaaau, 0x55555555u, false}},
    };

    TextTable at({"stream", "wide PMOS @100% stress",
                  "guardband (saturated)",
                  "guardband @30% util + pair " +
                      pairLabel(best_pair)});
    const auto add_stream_row =
        [&](const std::string &label,
            const std::vector<double> &probs) {
            at.addRow(
                {label, TextTable::pct(wide_fully_stressed(probs)),
                 TextTable::pct(analysis.baselineGuardband(probs)),
                 TextTable::pct(analysis.scenarioGuardband(
                     probs, 0.30, best_pair))});
        };
    add_stream_row("normal workload operands",
                   analysis.zeroProbsForOperands(normal_ops));
    for (const AdderStream &stream : streams) {
        add_stream_row(stream.label,
                       analysis.zeroProbsForOperands({stream.op}));
    }
    at.print(os);

    os << "\nA constant-operand stream holds every propagate/"
          "generate rail at one value,\nso the carry-merge chain -- "
          "the upsized devices a layout counts on to age\nslowly -- "
          "sits at 100% stress instead of the near-zero duty a "
          "normal operand\nmix produces.  Idle-input injection "
          "repairs it only during idle cycles: at\nsaturated "
          "utilisation the defence never runs, the adder-side "
          "analogue of the\nprofile-time-versus-adversary gap "
          "above.\n";

    // --------------------------------------------- register file
    printHeader(os, "Register-file wearout attack: hot-register "
                    "constant streams");

    // The Figure-6 INT register file and its calibrated replay
    // timing; the attacker controls only the uop stream.
    RegFileConfig rf_config;
    rf_config.name = "INT-RF";
    rf_config.numEntries = 128;
    rf_config.width = 32;
    RegReplayConfig rf_replay;
    rf_replay.fp = false;
    rf_replay.portFreeProb = 0.92;
    rf_replay.commitDelay = 64;

    // Both arms of every replay below: baseline, then ISV.
    const std::vector<bool> isv_arms = {false, true};
    const auto rf_arms = [&](auto &gen, std::uint64_t seed,
                             const std::vector<bool> &missing) {
        RegReplayConfig cfg = rf_replay;
        cfg.seed = seed;
        std::vector<RfAttackShard> shards;
        for (const RegFileArm &arm :
             replayRegFileArms(gen, options.uopsPerTrace, rf_config,
                               cfg, missing))
            shards.push_back({arm.bias, arm.freeFraction});
        return shards;
    };

    // Normal-workload reference: one trace per suite, baseline
    // and ISV-protected, merged in suite order.
    const auto normal_rf_shards =
        engine.mapVariantsCached<RfAttackShard>(
            workload.firstPerSuite(), isv_arms, options.results(),
            [&](unsigned index, bool isv, std::size_t) {
                return regfileNormalKey(
                    rf_config, rf_replay, isv, options.uopsPerTrace,
                    workload.spec(index).seed, index);
            },
            [&](unsigned index, std::size_t,
                const std::vector<bool> &missing) {
                TraceGenerator gen = workload.generator(index);
                return rf_arms(gen, mixSeed(rf_replay.seed, index),
                               missing);
            });
    RfAttackShard normal_rf[2];
    for (std::size_t a = 0; a < 2; ++a) {
        const auto &shards = normal_rf_shards[a];
        RfAttackShard &merged = normal_rf[a];
        merged.bias = BitBiasTracker(rf_config.width);
        for (const RfAttackShard &shard : shards) {
            merged.bias.merge(shard.bias);
            merged.freeFraction += shard.freeFraction;
        }
        merged.freeFraction /=
            static_cast<double>(shards.size());
    }

    // Attack arms: the same three pinned values as above, but the
    // stream hammers a 4-register hot window, so the renamer
    // cycles the whole physical file through the pinned value.
    AttackConfig rf_zeros;
    rf_zeros.hotRegs = 4;
    AttackConfig rf_ones;
    rf_ones.dataValue = 0xffffffffULL;
    rf_ones.hotRegs = 4;
    AttackConfig rf_alternating;
    rf_alternating.dataValue = 0xaaaaaaaaULL;
    rf_alternating.hotRegs = 4;
    const std::pair<const char *, AttackConfig> rf_variants[] = {
        {"all-zeros", rf_zeros},
        {"all-ones", rf_ones},
        {"alternating", rf_alternating}};
    std::vector<AttackRun> rf_runs;
    unsigned rf_variant_id = 0;
    for (const auto &[label, attack] : rf_variants)
        rf_runs.push_back({label, attack, rf_variant_id++});

    // rf_results[arm][variant]; ISV is the defence here.
    const auto rf_results = engine.mapVariantsCached<RfAttackShard>(
        rf_runs, isv_arms, options.results(),
        [&](const AttackRun &run, bool isv, std::size_t) {
            return regfileAttackKey(rf_config, rf_replay, isv,
                                    options.uopsPerTrace, run.attack,
                                    run.id);
        },
        [&](const AttackRun &run, std::size_t,
            const std::vector<bool> &missing) {
            AttackTraceGenerator gen(run.attack);
            return rf_arms(gen, mixSeed(rf_replay.seed, run.id),
                           missing);
        });

    TextTable rt({"stream", "pinned bits", "worst stress",
                  "pinned (ISV)", "worst (ISV)",
                  "guardband -> ISV"});
    const auto add_rf_row = [&](const std::string &label,
                                const RfAttackShard &base,
                                const RfAttackShard &isv) {
        rt.addRow(
            {label, TextTable::pct(pinnedBitFraction(base.bias)),
             TextTable::pct(base.bias.maxWorstCaseStress(), 1),
             TextTable::pct(pinnedBitFraction(isv.bias)),
             TextTable::pct(isv.bias.maxWorstCaseStress(), 1),
             TextTable::pct(model.guardbandForZeroProb(
                 base.bias.maxWorstCaseStress())) +
                 " -> " +
                 TextTable::pct(model.guardbandForZeroProb(
                     isv.bias.maxWorstCaseStress()))});
    };
    add_rf_row("normal workload", normal_rf[0], normal_rf[1]);
    for (std::size_t k = 0; k < rf_runs.size(); ++k) {
        add_rf_row(rf_runs[k].label, rf_results[0][k],
                   rf_results[1][k]);
    }
    rt.print(os);

    os << "\nA hot-register stream overwrites a "
       << rf_zeros.hotRegs
       << "-register window with one constant every cycle; "
          "renaming drags the whole\nphysical file through those "
          "writes, so the pinned value ages every entry\n(pinned "
          "bits = bit positions at >= 99.99% worst-case stress).  "
          "Unlike the\nsaturated adder, the ISV inversion defence "
          "holds up: inverting every other\nwrite at release "
          "makes even a constant stream alternate rails, which "
          "is\nexactly the invert-at-release argument of Section "
          "4.4 -- the register file's\ndefence acts on every "
          "write, not only on idle cycles an attacker can "
          "deny.\n";
}

// ---------------------------------------------------- attack search

/** Hex rendering of a pinned value for the report table. */
std::string
hexValue(std::uint64_t value, unsigned bits)
{
    static const char digits[] = "0123456789abcdef";
    std::string out = "0x";
    for (int shift = static_cast<int>(bits) - 4; shift >= 0;
         shift -= 4)
        out += digits[(value >> shift) & 0xf];
    return out;
}

void
runAttackSearch(const ExperimentContext &ctx)
{
    std::ostream &os = ctx.out;
    const ExperimentOptions &options = ctx.options;
    const WorkloadSet &workload = ctx.workload;
    const Engine engine(options.jobs, options.pool);
    const GuardbandModel model = GuardbandModel::paperCalibrated();

    printHeader(os, "Attack search: adversarial operand streams "
                    "via random-restart greedy mutation");

    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder, model);

    CandidateSweepConfig sweep_config;
    sweep_config.triageConfig.topK = options.surrogateTopK;
    sweep_config.triageConfig.auditFraction =
        options.surrogateAuditFraction;
    sweep_config.triageConfig.auditSeed =
        mixSeed(options.surrogateSeed, 0xa0d17);
    sweep_config.exactSamples = options.attackSearchExactSamples;

    // A full audit prices every proposal exactly, so it skips the
    // surrogate and its training replays altogether.
    TriageStats stats;
    std::optional<SurrogateFit> fit;
    if (options.surrogateAuditFraction < 1.0) {
        SurrogateFitConfig fit_config;
        fit_config.seed = mixSeed(options.surrogateSeed, 0xf17);
        fit = trainAttackSurrogate(
            analysis, options.surrogateTrainCandidates, fit_config,
            sweep_config.exactSamples, engine, options.results(),
            stats);
    }

    // Random-restart greedy mutation over the trace parameters.
    // Every proposal draws from the search streams only -- never
    // from the surrogate's fit/audit streams -- so the candidate
    // sequence is identical with or without triage; triage only
    // chooses which proposals the exact engine prices, and
    // each greedy step moves to the best *exact* score among the
    // priced proposals.
    struct RestartOutcome
    {
        AttackConfig best;
        CandidateEval eval;
    };
    std::vector<RestartOutcome> outcomes;
    for (std::size_t r = 0; r < options.attackSearchRestarts; ++r) {
        Rng search(mixSeed(options.surrogateSeed, 0x5ea4c0 + r));
        AttackConfig current = randomAttackCandidate(search);
        const CandidateSweepResult seed_eval = sweepAttackCandidates(
            analysis, {current}, nullptr, sweep_config, engine,
            options.results());
        stats.merge(seed_eval.stats);
        CandidateEval current_eval = seed_eval.best;

        for (std::size_t g = 0; g < options.attackSearchGenerations;
             ++g) {
            std::vector<AttackConfig> proposals;
            proposals.reserve(options.attackSearchProposals);
            for (std::size_t p = 0;
                 p < options.attackSearchProposals; ++p) {
                proposals.push_back(
                    mutateAttackCandidate(current, search));
            }
            const CandidateSweepResult sr = sweepAttackCandidates(
                analysis, proposals, fit ? &*fit : nullptr,
                sweep_config, engine, options.results());
            stats.merge(sr.stats);
            if (!sr.evals.empty() &&
                sr.best.score > current_eval.score) {
                current = proposals[sr.bestIndex];
                current_eval = sr.best;
            }
        }
        outcomes.push_back({current, current_eval});
    }

    // Overall winner: best exact score, ties towards the earlier
    // restart.
    std::size_t winner = 0;
    for (std::size_t r = 1; r < outcomes.size(); ++r) {
        if (outcomes[r].eval.score > outcomes[winner].eval.score)
            winner = r;
    }

    // Normal-workload reference: the same cached operand
    // collection as the Figure-5 runner.
    const auto normal_ops =
        collectWorkloadAdderOperands(workload, options);
    const auto normal_probs =
        analysis.zeroProbsForOperands(normal_ops);

    TextTable t({"stream", "data value", "imm", "branch period",
                 "mean device guardband", "wide PMOS @100%",
                 "narrow PMOS @100%"});
    t.addRow({"normal workload", "-", "-", "-",
              TextTable::pct(
                  analysis.meanDeviceGuardband(normal_probs)),
              TextTable::pct(analysis.wideFullyStressedFraction(
                  normal_probs)),
              TextTable::pct(
                  analysis.summarize(normal_probs)
                      .narrowFullyStressedFraction)});
    for (std::size_t r = 0; r < outcomes.size(); ++r) {
        const RestartOutcome &o = outcomes[r];
        t.addRow({"restart " + std::to_string(r + 1) +
                      (r == winner ? " (best)" : ""),
                  hexValue(o.best.dataValue, 32),
                  hexValue(o.best.imm, 16),
                  std::to_string(o.best.branchPeriod),
                  TextTable::pct(o.eval.score),
                  TextTable::pct(o.eval.wideFullyStressed),
                  TextTable::pct(o.eval.narrowFullyStressed)});
    }
    t.print(os);

    const RestartOutcome &w = outcomes[winner];
    os << "\nBest adversarial stream: data value "
       << hexValue(w.best.dataValue, 32)
       << ", saturated guardband "
       << TextTable::pct(w.eval.guardband)
       << " (normal workload: "
       << TextTable::pct(
              analysis.summarize(normal_probs).guardband)
       << ").\nEvery figure above is an exact-engine "
          "measurement; the surrogate only chose\nwhich "
          "proposals to price (full-audit or --no-surrogate "
          "prices them all and is\nbyte-identical by "
          "construction).\n";

    // Triage accounting goes to stderr: it differs between
    // pruned and exhaustive modes by design, and stdout must stay
    // byte-identical across jobs/cache/shard layouts.
    std::cerr << "attack-search: scored "
              << stats.candidatesScored << ", pruned "
              << stats.pruned << ", exact "
              << stats.exactEvaluated << " (+"
              << stats.trainEvaluated << " train), audited "
              << stats.audited << "\n";
}

} // namespace

void
registerBuiltinExperiments()
{
    ExperimentRegistry &registry = ExperimentRegistry::instance();
    if (!registry.experiments().empty())
        return;

    registry.add({"fig1", "Figure 1",
                  "NIT saw-tooth under alternating stress/relax "
                  "(RD model)",
                  runFig1});
    registry.add({"fig3", "Figure 3",
                  "Technique decision surface of the repair "
                  "casuistic",
                  runFig3});
    registry.add({"fig4", "Figure 4",
                  "Narrow PMOS fully-stressed fraction per "
                  "synthetic input pair",
                  runFig4});
    registry.add({"fig5", "Figure 5",
                  "Adder guardband vs utilisation with idle-input "
                  "injection",
                  runFig5});
    registry.add({"fig6", "Figure 6",
                  "Register-file per-bit bias, baseline vs ISV",
                  runFig6});
    registry.add({"fig8", "Figure 8",
                  "Scheduler per-field bias, baseline vs chosen "
                  "techniques (plus Table 2)",
                  runFig8});
    registry.add({"table1", "Table 1",
                  "Workload inventory and measured trace "
                  "characteristics",
                  runTable1});
    registry.add({"table3", "Table 3",
                  "Cache/TLB inversion-mechanism performance loss "
                  "grid",
                  runTable3});
    registry.add({"table4", "Table 4",
                  "NBTIefficiency per block and whole-processor "
                  "roll-up (Sections 4.2/4.7)",
                  runTable4});
    registry.add({"sec11", "Section 1.1",
                  "Data-bias motivation numbers and pipeline "
                  "survey",
                  runSec11});
    registry.add({"ablations", "DESIGN ablations",
                  "Idle-input policy, guardband map, ISV port and "
                  "branch-predictor ablations",
                  runAblations});
    registry.add({"attack", "Wearout attack",
                  "Adversarial streams pinning scheduler fields, "
                  "adder operands and hot registers",
                  runAttack});
    registry.add({"attack-search", "Attack search",
                  "Random-restart greedy search for worst-case "
                  "operand streams, surrogate-triaged exact "
                  "evaluation",
                  runAttackSearch});
}

} // namespace penelope
