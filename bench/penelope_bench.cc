/**
 * @file
 * The experiment multiplexer: one binary for the whole evaluation.
 *
 *   penelope_bench --list
 *   penelope_bench fig5 --stride 4 --jobs 8
 *   penelope_bench table4 sec11 --full
 *   penelope_bench --all --jobs 4
 *
 * Incremental re-runs and scale-out (see resultcache.hh):
 *
 *   penelope_bench --all --cache-dir .penelope-cache
 *       first run simulates and fills the cache; re-runs with the
 *       same options are near-instant and byte-identical.
 *
 *   penelope_bench --all --cache-dir .penelope-cache --cache-gc
 *       same (warm) run, then compacts the store down to the
 *       entries the run touched: entries keyed by a retired
 *       kResultCacheSalt or an options mix that no longer occurs
 *       are dropped (long-lived CI caches stay small).
 *
 *   penelope_bench --all --shard 0/2 --shard-out s0.bin
 *   penelope_bench --all --shard 1/2 --shard-out s1.bin   # elsewhere
 *   penelope_bench --all --merge s0.bin s1.bin
 *       each shard simulates its slice of the trace set and writes
 *       a merge-ready file of cache entries; --merge folds the
 *       shard files into statistics bit-identical to an unsharded
 *       run.
 *
 * Replaces the thirteen per-figure benchmark binaries.  Option
 * values are validated (the old harness fed `--stride x` through
 * atoi and silently ran with stride 0).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "adder/adder.hh"
#include "common/buildinfo.hh"
#include "common/threadpool.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/surrogate_sweep.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace penelope;

namespace {

int
usage(std::ostream &os, int exit_code)
{
    os << "usage: penelope_bench [experiment...] [options]\n"
          "       penelope_bench --list\n"
          "\n"
          "options:\n"
          "  --list       list registered experiments and exit\n"
          "  --all        run every registered experiment\n"
          "  --stride N   use every N-th of the 531 traces "
          "(N >= 1, default 16)\n"
          "  --uops N     uops per trace (N >= 1, default 40000)\n"
          "  --jobs N     worker threads for per-trace simulation\n"
          "               (N >= 1, default 1; 0 = all hardware "
          "threads;\n"
          "               statistics are identical for any N)\n"
          "  --full       full workload (stride 1) at paper-scale "
          "uop counts\n"
          "  --no-surrogate\n"
          "               disable surrogate triage: candidate "
          "sweeps price every\n"
          "               candidate with the exact engine.  "
          "Printed statistics come\n"
          "               from the exact engine in every mode; "
          "triage only decides\n"
          "               what to evaluate\n"
          "  --surrogate-audit F\n"
          "               seeded audit fraction of pruned "
          "candidates to exact-\n"
          "               evaluate anyway (default 0.03; 1.0 = "
          "full audit, which\n"
          "               bypasses the surrogate and is "
          "byte-identical to\n"
          "               --no-surrogate)\n"
          "  --surrogate-stats\n"
          "               print the fitted surrogate's "
          "coefficients, errors, triage\n"
          "               accounting, per-candidate costs and a "
          "same-run exhaustive\n"
          "               vs pruned sweep, then exit (cache-free; "
          "CI parses the\n"
          "               speedup floors)\n"
          "  --cache-dir DIR\n"
          "               content-addressed result cache: "
          "per-trace results are looked\n"
          "               up before simulating and stored after; "
          "statistics (and stdout)\n"
          "               are byte-identical with a cold cache, a "
          "warm cache, or none\n"
          "  --cache-gc   after the run, compact the --cache-dir "
          "store down to the\n"
          "               entries this run touched (a warm run "
          "touches every entry the\n"
          "               current salt and options can produce, so "
          "entries from retired\n"
          "               salts or changed options are dropped)\n"
          "  --shard I/N  simulate only the I-th of N round-robin "
          "slices of the trace\n"
          "               set and write the results as a "
          "merge-ready shard file\n"
          "               (this run's own stdout is partial)\n"
          "  --shard-out FILE\n"
          "               shard file path (default "
          "penelope_shard_I_of_N.bin)\n"
          "  --merge F... import shard files (all remaining "
          "arguments) and render the\n"
          "               full statistics from them, bit-identical "
          "to an unsharded run\n"
          "  --metrics-dump\n"
          "               enable the metrics registry and print a "
          "sorted 'obs: name value'\n"
          "               snapshot to stderr after the run (stdout "
          "is unchanged)\n"
          "  --trace-out FILE\n"
          "               write a Chrome trace_event JSON span "
          "trace (load it in\n"
          "               Perfetto or chrome://tracing)\n"
          "  --version    print the build configuration and exit\n"
          "  --help       this message\n";
    return exit_code;
}

/**
 * Parse a decimal option value with bounds checking.  Unlike the
 * old harness's atoi, rejects junk ("4x", "", "-2") and values
 * outside [min, max] with a real error message.
 */
bool
parseCount(const char *flag, const char *text, std::uint64_t min,
           std::uint64_t max, std::uint64_t &out)
{
    if (!text || !*text) {
        std::cerr << "penelope_bench: " << flag
                  << " requires a value\n";
        return false;
    }
    std::uint64_t value = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9') {
            std::cerr << "penelope_bench: " << flag
                      << " expects a non-negative integer, got '"
                      << text << "'\n";
            return false;
        }
        const std::uint64_t digit =
            static_cast<std::uint64_t>(*p - '0');
        if (value > (UINT64_MAX - digit) / 10) {
            std::cerr << "penelope_bench: " << flag
                      << " value '" << text << "' is too large\n";
            return false;
        }
        value = value * 10 + digit;
    }
    if (value < min || value > max) {
        std::cerr << "penelope_bench: " << flag << " must be in ["
                  << min << ", " << max << "], got " << value
                  << "\n";
        return false;
    }
    out = value;
    return true;
}

/** Parse "I/N" for --shard. */
bool
parseShard(const char *text, unsigned &index, unsigned &count)
{
    if (!text) {
        std::cerr << "penelope_bench: --shard requires I/N\n";
        return false;
    }
    const char *slash = std::strchr(text, '/');
    if (!slash || slash == text || !slash[1]) {
        std::cerr << "penelope_bench: --shard expects I/N, got '"
                  << text << "'\n";
        return false;
    }
    const std::string i_text(text, slash);
    std::uint64_t i = 0;
    std::uint64_t n = 0;
    if (!parseCount("--shard", i_text.c_str(), 0, 530, i) ||
        !parseCount("--shard", slash + 1, 1, 531, n))
        return false;
    if (i >= n) {
        std::cerr << "penelope_bench: --shard index " << i
                  << " out of range for " << n << " shards\n";
        return false;
    }
    index = static_cast<unsigned>(i);
    count = static_cast<unsigned>(n);
    return true;
}

/** Parse a decimal factor in [min, max] for --surrogate-audit. */
bool
parseFactor(const char *flag, const char *text, double min,
            double max, double &out)
{
    if (!text || !*text) {
        std::cerr << "penelope_bench: " << flag
                  << " requires a value\n";
        return false;
    }
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (!end || *end != '\0' || value < min || value > max) {
        std::cerr << "penelope_bench: " << flag
                  << " expects a number in [" << min << ", " << max
                  << "], got '" << text << "'\n";
        return false;
    }
    out = value;
    return true;
}

void
listExperiments(std::ostream &os)
{
    os << "registered experiments:\n";
    const auto &experiments =
        ExperimentRegistry::instance().experiments();
    std::size_t name_width = 0;
    for (const Experiment &e : experiments)
        name_width = std::max(name_width, e.name.size());
    for (const Experiment &e : experiments) {
        os << "  " << e.name;
        for (std::size_t pad = e.name.size(); pad <= name_width;
             ++pad)
            os << ' ';
        os << e.title << " - " << e.description << "\n";
    }
}

/**
 * The --surrogate-stats report: parsable one-line records of the
 * fitted duty -> degradation surrogate.  Everything runs
 * cache-free so the same-run exhaustive-vs-pruned sweep pays its
 * true simulation cost on both arms (CI parses the speedup floors
 * and the argmax-coverage flag from these lines).  Honors
 * --surrogate-audit and --jobs; coefficients are printed in full
 * -- no silent caps anywhere in the surrogate path.
 */
void
printSurrogateStats(std::ostream &os,
                    const ExperimentOptions &options)
{
    using clock = std::chrono::steady_clock;
    const auto ms = [](clock::duration d) {
        return std::chrono::duration<double, std::milli>(d)
            .count();
    };
    char buf[64];
    const auto num = [&buf](const char *fmt, double v) {
        std::snprintf(buf, sizeof buf, fmt, v);
        return std::string(buf);
    };

    const Engine engine(options.jobs);
    LadnerFischerAdder adder(32);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    AdderAgingAnalysis analysis(adder, model);
    const std::size_t exact_samples =
        options.attackSearchExactSamples;

    // Fit (timed): the training replays an attack-search run
    // amortises over every generation.
    TriageStats stats;
    SurrogateFitConfig fit_config;
    fit_config.seed = mixSeed(options.surrogateSeed, 0xf17);
    const auto t_fit0 = clock::now();
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, options.surrogateTrainCandidates, fit_config,
        exact_samples, engine, nullptr, stats);
    const auto t_fit1 = clock::now();

    os << "surrogate-fit adder=" << adder.name()
       << " features=" << fit.featureCount()
       << " train=" << fit.trainCount
       << " holdout=" << fit.holdoutCount
       << " train-rmse=" << num("%.6f", fit.trainRmse)
       << " holdout-rmse=" << num("%.6f", fit.holdoutRmse)
       << " fit-ms=" << num("%.2f", ms(t_fit1 - t_fit0)) << "\n";
    os << "surrogate-coeffs";
    for (std::size_t c = 0; c < fit.coeffs.size(); ++c)
        os << " c" << c << "=" << num("%.6g", fit.coeffs[c]);
    os << "\n";

    // Per-candidate costs: the exact replay vs the cheap tier
    // (feature extraction + closed-form predict).
    Rng probe_rng(mixSeed(options.surrogateSeed, 0xbe9c4));
    const AttackConfig probe = randomAttackCandidate(probe_rng);
    const std::vector<double> probe_features =
        candidateFeatures(probe, adder.width());

    constexpr unsigned kExactReps = 16;
    const auto t_exact0 = clock::now();
    double exact_sink = 0.0;
    for (unsigned r = 0; r < kExactReps; ++r) {
        exact_sink += evaluateCandidateExact(analysis, probe,
                                             exact_samples)
                          .score;
    }
    const auto t_exact1 = clock::now();

    constexpr unsigned kFeatureReps = 256;
    const auto t_feat0 = clock::now();
    double feature_sink = 0.0;
    for (unsigned r = 0; r < kFeatureReps; ++r)
        feature_sink +=
            candidateFeatures(probe, adder.width()).front();
    const auto t_feat1 = clock::now();

    constexpr unsigned kPredictReps = 1 << 18;
    const auto t_pred0 = clock::now();
    double predict_sink = 0.0;
    for (unsigned r = 0; r < kPredictReps; ++r)
        predict_sink += fit.predict(probe_features);
    const auto t_pred1 = clock::now();

    const double exact_ns =
        ms(t_exact1 - t_exact0) * 1e6 / kExactReps;
    const double feature_ns =
        ms(t_feat1 - t_feat0) * 1e6 / kFeatureReps;
    const double predict_ns =
        ms(t_pred1 - t_pred0) * 1e6 / kPredictReps;
    os << "surrogate-cost exact-ns=" << num("%.0f", exact_ns)
       << " feature-ns=" << num("%.0f", feature_ns)
       << " predict-ns=" << num("%.1f", predict_ns)
       << " predict-speedup=" << num("%.1f", exact_ns / predict_ns)
       << " cheap-tier-speedup="
       << num("%.1f", exact_ns / (feature_ns + predict_ns))
       << " sink=" << num("%.3g", exact_sink + feature_sink +
                                      predict_sink)
       << "\n";

    // Same-run sweep: one candidate pool, exhaustive then pruned,
    // no cache on either arm.
    constexpr std::size_t kSweepPool = 1024;
    std::vector<AttackConfig> pool;
    pool.reserve(kSweepPool);
    for (std::size_t i = 0; i < kSweepPool; ++i) {
        Rng rng(mixSeed(options.surrogateSeed,
                        0x9001'0000ULL + i));
        pool.push_back(randomAttackCandidate(rng));
    }

    CandidateSweepConfig exhaustive_config;
    exhaustive_config.triage = false;
    exhaustive_config.exactSamples = exact_samples;

    CandidateSweepConfig pruned_config = exhaustive_config;
    pruned_config.triage = true;
    pruned_config.triageConfig.topK = options.surrogateTopK;
    pruned_config.triageConfig.auditFraction =
        options.surrogateAuditFraction;
    pruned_config.triageConfig.auditSeed =
        mixSeed(options.surrogateSeed, 0xa0d17);

    const auto t_ex0 = clock::now();
    const CandidateSweepResult exhaustive = sweepAttackCandidates(
        analysis, pool, nullptr, exhaustive_config, engine,
        nullptr);
    const auto t_ex1 = clock::now();

    const auto t_pr0 = clock::now();
    const CandidateSweepResult pruned = sweepAttackCandidates(
        analysis, pool, &fit, pruned_config, engine, nullptr);
    const auto t_pr1 = clock::now();
    stats.merge(pruned.stats);

    const bool covered =
        std::find(pruned.evaluated.begin(), pruned.evaluated.end(),
                  exhaustive.bestIndex) != pruned.evaluated.end();
    const double exhaustive_ms = ms(t_ex1 - t_ex0);
    const double pruned_ms = ms(t_pr1 - t_pr0);
    const double pruned_with_fit_ms =
        pruned_ms + ms(t_fit1 - t_fit0);
    os << "surrogate-sweep pool=" << kSweepPool
       << " exhaustive-evals=" << exhaustive.evaluated.size()
       << " pruned-evals=" << pruned.evaluated.size()
       << " exhaustive-ms=" << num("%.2f", exhaustive_ms)
       << " pruned-ms=" << num("%.2f", pruned_ms)
       << " pruned-with-fit-ms="
       << num("%.2f", pruned_with_fit_ms)
       << " speedup=" << num("%.2f", exhaustive_ms / pruned_ms)
       << " speedup-with-fit="
       << num("%.2f", exhaustive_ms / pruned_with_fit_ms)
       << " argmax-covered=" << (covered ? "yes" : "no")
       << " best-score-match="
       << (pruned.best.score == exhaustive.best.score ? "yes"
                                                      : "no")
       << "\n";

    os << "surrogate-triage scored=" << stats.candidatesScored
       << " pruned=" << stats.pruned
       << " exact=" << stats.exactEvaluated
       << " audited=" << stats.audited
       << " train=" << stats.trainEvaluated << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    registerBuiltinExperiments();

    ExperimentOptions options;
    options.traceStride = 16;
    options.uopsPerTrace = 40'000;
    options.cacheUops = 40'000;

    std::vector<std::string> names;
    std::vector<std::string> merge_files;
    std::string cache_dir;
    std::string shard_out;
    bool run_all = false;
    bool uops_set = false;
    bool full = false;
    bool shard_mode = false;
    bool merge_mode = false;
    bool cache_gc = false;
    bool surrogate_stats_mode = false;

    bool metrics_dump = false;
    std::string trace_out;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::uint64_t value = 0;
        if (!std::strcmp(arg, "--help")) {
            return usage(std::cout, 0);
        } else if (!std::strcmp(arg, "--version")) {
            std::cout << buildInfoText();
            return 0;
        } else if (!std::strcmp(arg, "--metrics-dump")) {
            metrics_dump = true;
        } else if (!std::strcmp(arg, "--trace-out")) {
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --trace-out "
                             "requires a path\n";
                return 2;
            }
            trace_out = argv[++i];
        } else if (!std::strcmp(arg, "--list")) {
            listExperiments(std::cout);
            return 0;
        } else if (!std::strcmp(arg, "--all")) {
            run_all = true;
        } else if (!std::strcmp(arg, "--full")) {
            full = true;
        } else if (!std::strcmp(arg, "--stride")) {
            if (!parseCount("--stride", i + 1 < argc ? argv[++i]
                                                     : nullptr,
                            1, 531, value))
                return 2;
            options.traceStride = static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--uops")) {
            if (!parseCount("--uops", i + 1 < argc ? argv[++i]
                                                   : nullptr,
                            1, 1'000'000'000, value))
                return 2;
            options.uopsPerTrace =
                static_cast<std::size_t>(value);
            options.cacheUops = options.uopsPerTrace;
            uops_set = true;
        } else if (!std::strcmp(arg, "--jobs")) {
            if (!parseCount("--jobs", i + 1 < argc ? argv[++i]
                                                   : nullptr,
                            0, 4096, value))
                return 2;
            options.jobs = value == 0
                ? defaultJobs()
                : static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--no-surrogate")) {
            options.surrogateEnabled = false;
        } else if (!std::strcmp(arg, "--surrogate-audit")) {
            if (!parseFactor("--surrogate-audit",
                             i + 1 < argc ? argv[++i] : nullptr,
                             0.0, 1.0,
                             options.surrogateAuditFraction))
                return 2;
        } else if (!std::strcmp(arg, "--surrogate-stats")) {
            surrogate_stats_mode = true;
        } else if (!std::strcmp(arg, "--cache-dir")) {
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --cache-dir "
                             "requires a path\n";
                return 2;
            }
            cache_dir = argv[++i];
        } else if (!std::strcmp(arg, "--cache-gc")) {
            cache_gc = true;
        } else if (!std::strcmp(arg, "--shard")) {
            if (!parseShard(i + 1 < argc ? argv[++i] : nullptr,
                            options.shardIndex,
                            options.shardCount))
                return 2;
            shard_mode = true;
        } else if (!std::strcmp(arg, "--shard-out")) {
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --shard-out "
                             "requires a path\n";
                return 2;
            }
            shard_out = argv[++i];
        } else if (!std::strcmp(arg, "--merge")) {
            // --merge consumes every remaining argument as a
            // shard file (experiment names go before it).
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --merge requires "
                             "at least one shard file\n";
                return 2;
            }
            while (++i < argc)
                merge_files.push_back(argv[i]);
            merge_mode = true;
        } else if (arg[0] == '-') {
            std::cerr << "penelope_bench: unknown option '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        } else {
            names.push_back(arg);
        }
    }

    // Observability session: emission stays runtime-off unless a
    // flag asks for it, and every sink writes to stderr or a file --
    // stdout carries only experiment statistics either way.  The
    // guard tears everything down on every exit path.
    struct ObsGuard
    {
        bool dump = false;
        ~ObsGuard()
        {
            obs::Tracer::instance().close();
            if (dump) {
                std::cerr << obs::renderDump(
                    obs::Registry::instance().scrape());
            }
        }
    } obs_guard;
    obs_guard.dump = metrics_dump;
    if (metrics_dump || !trace_out.empty())
        obs::Registry::instance().setEnabled(true);
    if (!trace_out.empty()) {
        std::string error;
        if (!obs::Tracer::instance().open(trace_out, &error)) {
            std::cerr << "penelope_bench: --trace-out: " << error
                      << "\n";
            return 2;
        }
    }
    if (surrogate_stats_mode) {
        // After the parse loop so --jobs/--surrogate-audit apply
        // in any argument order.
        printSurrogateStats(std::cout, options);
        return 0;
    }

    if (full) {
        options.traceStride = 1;
        options.mechanismTimeScale = 0.2;
        if (!uops_set) {
            options.uopsPerTrace = 200'000;
            options.cacheUops = 200'000;
        }
    }

    const ExperimentRegistry &registry =
        ExperimentRegistry::instance();
    if (run_all) {
        names.clear();
        for (const Experiment &e : registry.experiments())
            names.push_back(e.name);
    }
    if (names.empty()) {
        std::cerr << "penelope_bench: no experiment given\n\n";
        listExperiments(std::cerr);
        std::cerr << '\n';
        return usage(std::cerr, 2);
    }

    // Validate every name before running anything.
    bool unknown = false;
    for (const std::string &name : names) {
        if (!registry.find(name)) {
            std::cerr << "penelope_bench: unknown experiment '"
                      << name << "'\n";
            unknown = true;
        }
    }
    if (unknown) {
        std::cerr << '\n';
        listExperiments(std::cerr);
        return 2;
    }

    if (shard_mode && merge_mode) {
        std::cerr << "penelope_bench: --shard and --merge are "
                     "mutually exclusive\n";
        return 2;
    }
    if (!shard_out.empty() && !shard_mode) {
        std::cerr << "penelope_bench: --shard-out requires "
                     "--shard I/N\n";
        return 2;
    }
    if (cache_gc && cache_dir.empty()) {
        std::cerr << "penelope_bench: --cache-gc requires "
                     "--cache-dir DIR\n";
        return 2;
    }
    if (cache_gc && shard_mode) {
        // A shard run only touches its own slice of the trace set;
        // GC'ing on its liveness would wipe every other shard's
        // entries from a shared store.
        std::cerr << "penelope_bench: --cache-gc cannot be "
                     "combined with --shard (a shard run touches "
                     "only its slice)\n";
        return 2;
    }

    // One persistent worker pool for the whole run: every parallel
    // region of every experiment reuses it instead of spinning its
    // own (measurable for --all, which strings many small regions
    // together).  jobs <= 1 stays a true serial run with no pool.
    std::optional<ThreadPool> pool;
    if (options.jobs > 1) {
        pool.emplace(options.jobs);
        options.pool = &*pool;
    }

    // The content-addressed result layer: disk-backed for
    // --cache-dir, memory-backed for shard/merge runs (whose
    // entries travel through shard files instead).  Without any of
    // the flags the runners use the options' own in-memory memo
    // (ExperimentOptions::results()), so each keyed result is still
    // computed once per process; stdout is byte-identical on every
    // path by the resultcache.hh contract.
    std::optional<ResultCache> cache;
    if (!cache_dir.empty() || shard_mode || merge_mode) {
        cache.emplace(cache_dir);
        options.cache = &*cache;
    }
    for (const std::string &file : merge_files) {
        if (!cache->importFrom(file)) {
            // A missing/foreign shard file only costs recompute
            // time; the merged statistics stay correct.
            std::cerr << "penelope_bench: warning: could not "
                         "import shard file '"
                      << file << "' (entries will be "
                                 "recomputed)\n";
        }
    }

    const WorkloadSet workload;
    for (const std::string &name : names) {
        const Experiment *experiment = registry.find(name);
        const ExperimentContext ctx{workload, options, std::cout};
        const bool timed = obs::enabled();
        const std::uint64_t t0 =
            timed ? obs::monotonicMicros() : 0;
        {
            const obs::ScopedSpan span(name, "experiment");
            experiment->run(ctx);
        }
        if (timed) {
            PENELOPE_OBS_HISTOGRAM("engine.experiment_latency",
                                   "us")
                .record(obs::monotonicMicros() - t0);
        }
    }

    if (shard_mode) {
        if (shard_out.empty()) {
            shard_out = "penelope_shard_" +
                std::to_string(options.shardIndex) + "_of_" +
                std::to_string(options.shardCount) + ".bin";
        }
        if (!cache->exportTo(shard_out)) {
            std::cerr << "penelope_bench: failed to write shard "
                         "file '"
                      << shard_out << "'\n";
            return 1;
        }
        std::cerr << "penelope_bench: wrote "
                  << cache->size() << " entries to " << shard_out
                  << " (merge with: penelope_bench ... --merge "
                  << shard_out << " ...)\n";
    }
    if (cache_gc) {
        // The experiments above touched every entry the current
        // salt/options can key; everything else is unreachable.
        if (!run_all) {
            std::cerr << "penelope_bench: cache-gc: note: "
                         "liveness is THIS run's experiment "
                         "selection; entries of experiments not "
                         "run are dropped (use --all to keep the "
                         "whole catalog warm)\n";
        }
        const std::size_t dropped = cache->compact();
        std::cerr << "penelope_bench: cache-gc: kept "
                  << cache->size() << " entries, dropped "
                  << dropped << "\n";
    }
    if (cache) {
        // Stats go to stderr: stdout must stay byte-identical
        // across cold, warm, sharded and memo-only runs.
        const ResultCache::Stats s = cache->stats();
        std::cerr << "penelope_bench: result cache: " << s.hits
                  << " hits, " << s.misses << " misses, "
                  << s.stores << " stores";
        if (s.decodeFailures || s.badRecords) {
            std::cerr << ", " << s.decodeFailures
                      << " undecodable payloads, " << s.badRecords
                      << " bad records dropped";
        }
        std::cerr << "\n";
    }
    return 0;
}
