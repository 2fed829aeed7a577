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
 * Every flag is one row of kFlags: its name, value placeholder,
 * accepted range, help text and effect.  --help renders the table
 * the parser reads, so the two cannot drift; the rules that
 * relate flags to each other live in finishCommandLine.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
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

/** Everything the command line sets. */
struct Cli
{
    ExperimentOptions options;
    std::vector<std::string> names;
    std::optional<unsigned> stride; ///< unset: the preset
    std::optional<std::size_t> uops;
    bool full = false;
    bool all = false;
    bool surrogateStats = false;
    std::string cacheDir;
    bool cacheGc = false;
    bool shard = false;
    std::string shardOut;
    std::vector<std::string> mergeFiles;
    bool metricsDump = false;
    std::string traceOut;

    /** Set by a flag that answers on its own (--help, --list,
     *  --version): the rest of the command line is ignored, the
     *  answer goes to stdout and the exit status is 0. */
    void (*answer)(std::ostream &) = nullptr;
};

/** How a flag reads its value. */
enum class Arg
{
    None,  ///< a switch
    Count, ///< an integer in [min, max]
    Real,  ///< a number in [min, max]
    Shard, ///< I/N with N in [min, max] and I < N
    Text,  ///< one non-empty word
    Rest,  ///< every remaining argument, at least one
};

/** A flag's parsed value. */
struct Value
{
    std::uint64_t count = 0; ///< Count; Shard: N
    std::uint64_t index = 0; ///< Shard: I
    double real = 0.0;       ///< Real
    std::vector<std::string> words; ///< Text (one word), Rest
};

struct Flag
{
    const char *name;
    Arg arg;
    const char *meta; ///< the value's placeholder, nullptr for None
    double min, max;  ///< accepted range of Count, Real and Shard
    /** Usage text; "%r" renders the accepted range, "\n" starts a
     *  new line. */
    const char *help;
    void (*apply)(Cli &, const Value &);
};

void usage(std::ostream &os);
void listExperiments(std::ostream &os);

const Flag kFlags[] = {
    {"--list", Arg::None, nullptr, 0, 0,
     "list registered experiments and exit",
     [](Cli &c, const Value &) { c.answer = listExperiments; }},
    {"--all", Arg::None, nullptr, 0, 0,
     "run every registered experiment",
     [](Cli &c, const Value &) { c.all = true; }},
    {"--stride", Arg::Count, "N", 1, 531,
     "use every N-th of the 531 traces (N in %r, default 16)",
     [](Cli &c, const Value &v) {
         c.stride = static_cast<unsigned>(v.count);
     }},
    {"--uops", Arg::Count, "N", 1, 1e9,
     "uops per trace (N in %r, default 40000)",
     [](Cli &c, const Value &v) { c.uops = v.count; }},
    {"--jobs", Arg::Count, "N", 0, 4096,
     "worker threads (N in %r, default 1; 0 = all hardware\n"
     "threads); statistics are identical for any N",
     [](Cli &c, const Value &v) {
         c.options.jobs = v.count == 0
             ? defaultJobs()
             : static_cast<unsigned>(v.count);
     }},
    {"--full", Arg::None, nullptr, 0, 0,
     "paper scale: --stride 1 --uops 200000 and slower mechanism\n"
     "time constants; an explicit --stride or --uops wins",
     [](Cli &c, const Value &) { c.full = true; }},
    {"--no-surrogate", Arg::None, nullptr, 0, 0,
     "same as --surrogate-audit 1",
     [](Cli &c, const Value &) {
         c.options.surrogateAuditFraction = 1.0;
     }},
    {"--surrogate-audit", Arg::Real, "F", 0, 1,
     "seeded share of pruned candidates the exact engine prices\n"
     "anyway (F in %r, default 0.03); 1 prices every candidate\n"
     "and never fits the surrogate.  Printed figures are exact",
     [](Cli &c, const Value &v) {
         c.options.surrogateAuditFraction = v.real;
     }},
    {"--surrogate-stats", Arg::None, nullptr, 0, 0,
     "print the surrogate's fit, costs, triage counts and a\n"
     "same-run exhaustive vs pruned sweep, then exit (cache-free)",
     [](Cli &c, const Value &) { c.surrogateStats = true; }},
    {"--cache-dir", Arg::Text, "DIR", 0, 0,
     "content-addressed per-trace result store; stdout is\n"
     "byte-identical with a cold cache, a warm one, or none",
     [](Cli &c, const Value &v) { c.cacheDir = v.words.front(); }},
    {"--cache-gc", Arg::None, nullptr, 0, 0,
     "after the run, drop every --cache-dir entry the run did\n"
     "not touch (retired salts, changed options)",
     [](Cli &c, const Value &) { c.cacheGc = true; }},
    {"--shard", Arg::Shard, "I/N", 1, 531,
     "simulate only the I-th of N round-robin slices of the\n"
     "trace set (N in %r, I < N) and write the results as a\n"
     "merge-ready shard file (this run's own stdout is partial)",
     [](Cli &c, const Value &v) {
         c.shard = true;
         c.options.shardIndex = static_cast<unsigned>(v.index);
         c.options.shardCount = static_cast<unsigned>(v.count);
     }},
    {"--shard-out", Arg::Text, "FILE", 0, 0,
     "shard file path (default penelope_shard_I_of_N.bin)",
     [](Cli &c, const Value &v) { c.shardOut = v.words.front(); }},
    {"--merge", Arg::Rest, "FILE...", 0, 0,
     "render the full statistics from shard files (all remaining\n"
     "arguments), bit-identical to an unsharded run",
     [](Cli &c, const Value &v) { c.mergeFiles = v.words; }},
    {"--metrics-dump", Arg::None, nullptr, 0, 0,
     "print a sorted 'obs: name value' metrics snapshot to\n"
     "stderr after the run (stdout is unchanged)",
     [](Cli &c, const Value &) { c.metricsDump = true; }},
    {"--trace-out", Arg::Text, "FILE", 0, 0,
     "write a Chrome trace_event JSON span trace (load it in\n"
     "Perfetto or chrome://tracing)",
     [](Cli &c, const Value &v) { c.traceOut = v.words.front(); }},
    {"--version", Arg::None, nullptr, 0, 0,
     "print the build configuration and exit",
     [](Cli &c, const Value &) {
         c.answer = [](std::ostream &os) { os << buildInfoText(); };
     }},
    {"--help", Arg::None, nullptr, 0, 0, "this message",
     [](Cli &c, const Value &) { c.answer = usage; }},
};

/** @p flag's accepted range as "<min><between><max>". */
std::string
range(const Flag &flag, const char *between)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.15g%s%.15g", flag.min, between,
                  flag.max);
    return buf;
}

void
usage(std::ostream &os)
{
    constexpr std::size_t kHelpColumn = 15;
    os << "usage: penelope_bench [experiment...] [options]\n"
          "       penelope_bench --list\n"
          "\n"
          "options (a later flag overrides an earlier one):\n";
    for (const Flag &flag : kFlags) {
        std::string head = std::string("  ") + flag.name;
        if (flag.meta)
            head += std::string(" ") + flag.meta;
        std::string help = flag.help;
        if (const std::size_t at = help.find("%r");
            at != std::string::npos)
            help.replace(at, 2, range(flag, ".."));
        os << head;
        std::size_t column = head.size();
        if (column >= kHelpColumn) {
            os << '\n';
            column = 0;
        }
        for (std::size_t at = 0; at < help.size();) {
            const std::size_t eol = std::min(help.find('\n', at),
                                             help.size());
            os << std::string(kHelpColumn - column, ' ')
               << help.substr(at, eol - at) << '\n';
            column = 0;
            at = eol + 1;
        }
    }
}

/** Print "penelope_bench: <parts>" to stderr; returns false. */
bool
fail(const auto &...parts)
{
    std::cerr << "penelope_bench: ";
    (std::cerr << ... << parts) << '\n';
    return false;
}

/** Parse all of @p text as a T in [min, max]. */
template <class T>
bool
parseIn(std::string_view text, double min, double max, T &out)
{
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    // Negated range test: NaN compares false both ways, so it is
    // rejected instead of slipping through as in range.
    if (ec != std::errc() || end != text.data() + text.size() ||
        !(value >= min && value <= max))
        return false;
    out = value;
    return true;
}

/** Read @p flag's value from argv past @p i, advancing @p i over
 *  what it consumes.  Explains and returns false when the value is
 *  missing or outside the flag's range. */
bool
readValue(const Flag &flag, int argc, char **argv, int &i, Value &v)
{
    if (flag.arg == Arg::None)
        return true;
    if (i + 1 >= argc)
        return fail(flag.name, " requires ", flag.meta);
    const std::string_view text = argv[++i];
    switch (flag.arg) {
      case Arg::Count:
        return parseIn(text, flag.min, flag.max, v.count) ||
            fail(flag.name, " expects an integer in [",
                 range(flag, ", "), "], got '", text, "'");
      case Arg::Real:
        return parseIn(text, flag.min, flag.max, v.real) ||
            fail(flag.name, " expects a number in [",
                 range(flag, ", "), "], got '", text, "'");
      case Arg::Shard: {
        const std::size_t slash = text.find('/');
        return (slash != std::string_view::npos &&
                parseIn(text.substr(slash + 1), flag.min, flag.max,
                        v.count) &&
                parseIn(text.substr(0, slash), 0,
                        static_cast<double>(v.count) - 1, v.index)) ||
            fail(flag.name, " expects I/N with N in [",
                 range(flag, ", "), "] and I < N, got '", text, "'");
      }
      case Arg::Rest:
        v.words.assign(argv + i, argv + argc);
        i = argc - 1;
        return true;
      default: // Arg::Text
        // An empty path would silently mean "no cache", "the
        // default file" or "no trace".
        if (text.empty())
            return fail(flag.name, " requires a non-empty ", flag.meta);
        v.words.emplace_back(text);
        return true;
    }
}

/** Apply every flag of the command line in order (a later flag
 *  overrides an earlier one) and collect experiment names. */
bool
parseCommandLine(int argc, char **argv, Cli &cli)
{
    for (int i = 1; i < argc && !cli.answer; ++i) {
        const std::string_view arg = argv[i];
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags) {
            if (arg == f.name)
                flag = &f;
        }
        if (flag) {
            Value value;
            if (!readValue(*flag, argc, argv, i, value))
                return false;
            flag->apply(cli, value);
        } else if (arg.starts_with('-')) {
            fail("unknown option '", arg, "'");
            usage(std::cerr);
            return false;
        } else {
            cli.names.emplace_back(arg);
        }
    }
    return true;
}

/** The rules that relate flags to each other, and the --full
 *  preset: explains and returns false on a command line that
 *  contradicts itself or names no known experiment. */
bool
finishCommandLine(Cli &cli)
{
    ExperimentOptions &options = cli.options;
    options.traceStride = cli.stride.value_or(cli.full ? 1 : 16);
    options.uopsPerTrace = cli.uops.value_or(cli.full ? 200'000 : 40'000);
    options.cacheUops = options.uopsPerTrace;
    if (cli.full)
        options.mechanismTimeScale = 0.2;

    if (cli.shard && !cli.mergeFiles.empty())
        return fail("--shard and --merge are mutually exclusive");
    if (!cli.shardOut.empty() && !cli.shard)
        return fail("--shard-out requires --shard I/N");
    if (cli.cacheGc && cli.cacheDir.empty())
        return fail("--cache-gc requires --cache-dir DIR");
    // A shard run only touches its own slice of the trace set;
    // GC'ing on its liveness would wipe every other shard's
    // entries from a shared store.
    if (cli.cacheGc && cli.shard)
        return fail("--cache-gc cannot be combined with --shard (a "
                    "shard run touches only its slice)");
    if (cli.shard && cli.shardOut.empty()) {
        cli.shardOut = "penelope_shard_" +
            std::to_string(options.shardIndex) + "_of_" +
            std::to_string(options.shardCount) + ".bin";
    }
    if (cli.surrogateStats)
        return true;

    const ExperimentRegistry &registry =
        ExperimentRegistry::instance();
    if (cli.all) {
        cli.names.clear();
        for (const Experiment &e : registry.experiments())
            cli.names.push_back(e.name);
    }
    if (cli.names.empty()) {
        fail("no experiment given\n");
        listExperiments(std::cerr);
        std::cerr << '\n';
        usage(std::cerr);
        return false;
    }
    bool known = true;
    for (const std::string &name : cli.names) {
        if (!registry.find(name))
            known = fail("unknown experiment '", name, "'");
    }
    if (!known) {
        std::cerr << '\n';
        listExperiments(std::cerr);
    }
    return known;
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
    exhaustive_config.exactSamples = exact_samples;

    CandidateSweepConfig pruned_config = exhaustive_config;
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

    Cli cli;
    if (!parseCommandLine(argc, argv, cli))
        return 2;
    if (cli.answer) {
        cli.answer(std::cout);
        return 0;
    }
    if (!finishCommandLine(cli))
        return 2;
    ExperimentOptions &options = cli.options;

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
    obs_guard.dump = cli.metricsDump;
    if (cli.metricsDump || !cli.traceOut.empty())
        obs::Registry::instance().setEnabled(true);
    if (!cli.traceOut.empty()) {
        std::string error;
        if (!obs::Tracer::instance().open(cli.traceOut, &error)) {
            std::cerr << "penelope_bench: --trace-out: " << error
                      << "\n";
            return 2;
        }
    }
    if (cli.surrogateStats) {
        printSurrogateStats(std::cout, options);
        return 0;
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
    if (!cli.cacheDir.empty() || cli.shard || !cli.mergeFiles.empty()) {
        cache.emplace(cli.cacheDir);
        options.cache = &*cache;
    }
    for (const std::string &file : cli.mergeFiles) {
        if (!cache->importFrom(file)) {
            // A missing/foreign shard file only costs recompute
            // time; the merged statistics stay correct.
            std::cerr << "penelope_bench: warning: could not "
                         "import shard file '"
                      << file << "' (entries will be "
                                 "recomputed)\n";
        }
    }

    const ExperimentRegistry &registry =
        ExperimentRegistry::instance();
    const WorkloadSet workload;
    for (const std::string &name : cli.names) {
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

    if (cli.shard) {
        if (!cache->exportTo(cli.shardOut)) {
            std::cerr << "penelope_bench: failed to write shard "
                         "file '"
                      << cli.shardOut << "'\n";
            return 1;
        }
        std::cerr << "penelope_bench: wrote "
                  << cache->size() << " entries to " << cli.shardOut
                  << " (merge with: penelope_bench ... --merge "
                  << cli.shardOut << " ...)\n";
    }
    if (cli.cacheGc) {
        // The experiments above touched every entry the current
        // salt/options can key; everything else is unreachable.
        if (!cli.all) {
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
