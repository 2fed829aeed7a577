/**
 * @file
 * perfbench_harness: one benchmark repetition, or the layer probes,
 * in a fresh process.  perfbench/run.py drives it; nothing here
 * touches the library's internals -- every measurement is a clock
 * read around a call into a public function.
 *
 *   perfbench_harness --version
 *       the build configuration (`penelope_bench --version` text).
 *
 *   perfbench_harness run --experiments table3 --seed S --stride 32
 *                     --uops 40000 --jobs 4 [--cache-dir DIR]
 *                     [--setup-only] [--trace] --report FILE
 *                     [--spans FILE] [--rep-id N] [--passes N]
 *       wires the registered experiments the way penelope_bench
 *       does (same ExperimentOptions, one persistent ThreadPool when
 *       jobs > 1, a ResultCache only with --cache-dir) and runs
 *       them, rendering to stdout.  --passes N runs the list N
 *       times in the process, pass p > 0 with its own surrogate
 *       seed mixSeed(seed', p), so one repetition averages over N
 *       independent searches.  The report records the
 *       CLOCK_MONOTONIC instant of the first experiment call (the
 *       end of set-up), wall and CPU time of the experiment calls
 *       and peak RSS.  --trace turns the program's metrics registry
 *       on and records per-experiment counter deltas; --spans
 *       writes the benchmark-side spans at exit.
 *
 *   perfbench_harness probe [same sizing flags] --report FILE
 *       times single layers on the workload's own traces and
 *       configs (trace generation, cache timing sim, scheduler and
 *       register-file replay, pipeline, netlist, surrogate, engine
 *       fan-out, result cache) and writes per-layer metrics.
 *
 * The workload seed feeds WorkloadSet(seed) and, XOR-offset so the
 * paper seed maps to the library default, surrogateSeed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "cache/timing.hh"
#include "common/buildinfo.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "core/engine.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/surrogate_sweep.hh"
#include "nbti/guardband.hh"
#include "nbti/surrogate.hh"
#include "obs/metrics.hh"
#include "pipeline/pipeline.hh"
#include "regfile/driver.hh"
#include "regfile/regfile.hh"
#include "scheduler/driver.hh"
#include "scheduler/scheduler.hh"
#include "trace/workload.hh"

using namespace penelope;

namespace {

/** WorkloadSet's default base seed: the paper run. */
constexpr std::uint64_t kPaperSeed = 0x50454e454c4f50ULL;

/** Program counters scraped around every traced experiment call. */
const char *const kCounters[] = {
    "cache_model.drains",    "scheduler.drains",
    "regfile.drains",        "netlist.batch_evals",
    "netlist.lane_capacity", "netlist.lanes_used",
    "surrogate.fits",        "surrogate.scored",
    "surrogate.pruned",      "surrogate.exact_evals",
    "surrogate.train_evals", "surrogate.audited",
    "engine.tasks",          "cache.hits",
    "cache.misses",          "cache.stores",
};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Benchmark-side spans: kept in memory, written out at exit.
 *  Ids are 1-based; parent 0 is the root. */
class SpanLog
{
  public:
    std::size_t
    open(std::string name, std::size_t parent)
    {
        spans_.push_back({std::move(name), parent, nowNs(), 0});
        return spans_.size();
    }

    void close(std::size_t id) { spans_[id - 1].end = nowNs(); }

    void
    write(std::ostream &os, std::uint64_t rep) const
    {
        os << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"id\": " << i + 1
               << ", \"parent\": " << s.parent
               << ", \"rep\": " << rep << ", \"name\": \"" << s.name
               << "\", \"start_ns\": " << s.start
               << ", \"end_ns\": " << s.end << "}";
        }
        os << "\n]\n";
    }

  private:
    struct Span
    {
        std::string name;
        std::size_t parent;
        std::int64_t start;
        std::int64_t end;
    };
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(SpanLog &log, std::string name, std::size_t parent = 0)
        : log_(log), id_(log.open(std::move(name), parent))
    {
    }
    ~Scope() { log_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::size_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::size_t id_;
};

struct Args
{
    std::string mode;
    std::vector<std::string> experiments;
    std::uint64_t seed = kPaperSeed;
    unsigned stride = 16;
    std::size_t uops = 40'000;
    unsigned jobs = 1;
    std::size_t restarts = 0;    ///< 0 = library default
    std::size_t generations = 0; ///< 0 = library default
    std::size_t passes = 1;
    std::string cacheDir;
    bool setupOnly = false;
    bool trace = false;
    std::string report;
    std::string spans;
    std::uint64_t rep = 0;
};

[[noreturn]] void
usageError(const std::string &what)
{
    std::cerr << "perfbench_harness: " << what
              << "\nusage: perfbench_harness --version | run|probe "
                 "--experiments A,B --seed S --stride N --uops N "
                 "--jobs N [--restarts N] [--generations N] "
                 "[--passes N] "
                 "[--cache-dir DIR] [--setup-only] [--trace] "
                 "--report FILE [--spans FILE] [--rep-id N]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const char *text,
              std::uint64_t max)
{
    if (!text || !*text)
        usageError(flag + " needs a value");
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (*end != '\0' || text[0] == '-' || errno == ERANGE || v > max)
        usageError(flag + ": not a number in [0, " +
                   std::to_string(max) + "]: " + text);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        usageError("missing mode");
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        const auto number = [&](std::uint64_t max =
                                    std::numeric_limits<
                                        std::uint64_t>::max()) {
            ++i;
            return parseUnsigned(flag, value, max);
        };
        constexpr std::uint64_t kMaxUnsigned =
            std::numeric_limits<unsigned>::max();
        if (flag == "--experiments") {
            if (!value)
                usageError("--experiments needs a value");
            std::stringstream list(argv[++i]);
            for (std::string name; std::getline(list, name, ',');)
                a.experiments.push_back(name);
        } else if (flag == "--seed") {
            a.seed = number();
        } else if (flag == "--stride") {
            a.stride = static_cast<unsigned>(number(kMaxUnsigned));
        } else if (flag == "--uops") {
            a.uops = number();
        } else if (flag == "--jobs") {
            a.jobs = static_cast<unsigned>(number(kMaxUnsigned));
        } else if (flag == "--restarts") {
            a.restarts = number();
        } else if (flag == "--generations") {
            a.generations = number();
        } else if (flag == "--passes") {
            a.passes = number();
        } else if (flag == "--rep-id") {
            a.rep = number();
        } else if (flag == "--cache-dir" || flag == "--report" ||
                   flag == "--spans") {
            if (!value)
                usageError(flag + " needs a value");
            ++i;
            if (flag == "--cache-dir")
                a.cacheDir = value;
            else if (flag == "--report")
                a.report = value;
            else
                a.spans = value;
        } else if (flag == "--setup-only") {
            a.setupOnly = true;
        } else if (flag == "--trace") {
            a.trace = true;
        } else {
            usageError("unknown flag " + flag);
        }
    }
    if (a.stride == 0 || a.uops == 0 || a.jobs == 0 || a.passes == 0)
        usageError("--stride, --uops, --jobs and --passes must be >= 1");
    if (a.report.empty())
        usageError("--report is required");
    return a;
}

/** The options penelope_bench would build for these flags. */
ExperimentOptions
experimentOptions(const Args &a)
{
    ExperimentOptions options;
    options.traceStride = a.stride;
    options.uopsPerTrace = a.uops;
    options.cacheUops = a.uops;
    options.jobs = a.jobs;
    if (a.restarts)
        options.attackSearchRestarts = a.restarts;
    if (a.generations)
        options.attackSearchGenerations = a.generations;
    options.surrogateSeed =
        a.seed ^ (kPaperSeed ^ ExperimentOptions{}.surrogateSeed);
    return options;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

/** {"name": value, ...} with full precision. */
std::string
jsonObject(const std::map<std::string, double> &values)
{
    std::string out = "{";
    const char *sep = "";
    for (const auto &[name, value] : values) {
        out += sep + ("\"" + name + "\": ") + num(value);
        sep = ", ";
    }
    return out + "}";
}

void
writeSpans(const Args &a, const SpanLog &spans)
{
    if (a.spans.empty())
        return;
    std::ostringstream os;
    spans.write(os, a.rep);
    writeFile(a.spans, os.str());
}

std::map<std::string, std::uint64_t>
scrapeCounters()
{
    const obs::Snapshot snap = obs::Registry::instance().scrape();
    std::map<std::string, std::uint64_t> out;
    for (const char *name : kCounters) {
        const obs::SnapshotMetric *m = snap.find(name);
        out[name] = m ? m->scalar() : 0;
    }
    return out;
}

// ---------------------------------------------------------------- run

int
runMode(const Args &a)
{
    registerBuiltinExperiments();
    const ExperimentRegistry &registry =
        ExperimentRegistry::instance();
    std::vector<const Experiment *> experiments;
    for (const std::string &name : a.experiments) {
        const Experiment *e = registry.find(name);
        if (!e)
            usageError("unknown experiment '" + name + "'");
        experiments.push_back(e);
    }
    if (experiments.empty())
        usageError("--experiments is required");

    ExperimentOptions options = experimentOptions(a);
    std::optional<ThreadPool> pool;
    if (options.jobs > 1) {
        pool.emplace(options.jobs);
        options.pool = &*pool;
    }
    std::optional<ResultCache> cache;
    if (!a.cacheDir.empty()) {
        cache.emplace(a.cacheDir);
        options.cache = &*cache;
    }
    const WorkloadSet workload(a.seed);

    // End of set-up: everything above is paid on every invocation.
    const std::int64_t ready_ns = nowNs();
    std::ostringstream report;
    report << "{\"setup_mono_ns\": " << ready_ns;
    if (a.setupOnly) {
        report << "}\n";
        writeFile(a.report, report.str());
        return 0;
    }

    if (a.trace)
        obs::Registry::instance().setEnabled(true);
    SpanLog spans;
    std::ostringstream per_experiment;
    const char *entry_sep = "";
    const auto call = [&](const Experiment &e, std::size_t parent) {
        const auto before = a.trace
            ? scrapeCounters()
            : std::map<std::string, std::uint64_t>{};
        const std::int64_t e0 = nowNs();
        {
            const Scope span(spans, "experiment." + e.name, parent);
            e.run(ExperimentContext{workload, options, std::cout});
        }
        per_experiment << entry_sep << "{\"name\": \"" << e.name
                       << "\", \"wall_s\": " << num((nowNs() - e0) * 1e-9)
                       << ", \"counters\": {";
        if (a.trace) {
            const char *sep = "";
            for (const auto &[name, value] : scrapeCounters()) {
                per_experiment << sep << "\"" << name
                               << "\": " << value - before.at(name);
                sep = ", ";
            }
        }
        per_experiment << "}}";
        entry_sep = ", ";
    };

    const std::uint64_t surrogate_seed = options.surrogateSeed;
    const double cpu0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    {
        const Scope rep(spans, "rep");
        for (std::size_t pass = 0; pass < a.passes; ++pass) {
            if (pass > 0)
                options.surrogateSeed = mixSeed(surrogate_seed, pass);
            for (const Experiment *e : experiments)
                call(*e, rep.id());
        }
    }
    const std::int64_t t1 = nowNs();
    const double cpu1 = cpuSeconds();
    std::cout.flush();

    report << ", \"wall_s\": " << num((t1 - t0) * 1e-9)
           << ", \"cpu_s\": " << num(cpu1 - cpu0)
           << ", \"peak_rss_kb\": " << peakRssKb()
           << ", \"experiments\": [" << per_experiment.str()
           << "]}\n";
    writeFile(a.report, report.str());
    writeSpans(a, spans);
    return std::cout ? 0 : 1;
}

// -------------------------------------------------------------- probe

/** Keeps probed results live so no timed call is optimised away. */
std::uint64_t g_sink = 0;

/** Replays a pre-materialised uop buffer (wrapping if over-read). */
class BufferGen
{
  public:
    explicit BufferGen(const std::vector<Uop> &uops) : uops_(uops) {}
    Uop next() { return uops_[i_++ % uops_.size()]; }

  private:
    const std::vector<Uop> &uops_;
    std::size_t i_ = 0;
};

/** Seconds taken by fn(). */
template <class Fn>
double
timed(SpanLog &spans, std::size_t parent, const std::string &name,
      Fn &&fn)
{
    const Scope span(spans, name, parent);
    const std::int64_t t0 = nowNs();
    fn();
    return (nowNs() - t0) * 1e-9;
}

/** Spread the probe over up to four of the workload's traces. */
std::vector<unsigned>
probeTraces(const WorkloadSet &workload, const ExperimentOptions &options)
{
    const std::vector<unsigned> all = evaluationTraces(workload, options);
    std::vector<unsigned> picked;
    const std::size_t step = std::max<std::size_t>(1, all.size() / 4);
    for (std::size_t i = 0; i < all.size() && picked.size() < 4;
         i += step)
        picked.push_back(all[i]);
    return picked;
}

/** Per-layer metrics into @p metrics (@p detail: the raw numbers the
 *  generation-subtracted ones derive from); every timed call is a
 *  span under @p root.  Returns the number of probed traces. */
std::size_t
probeLayers(const Args &a, SpanLog &spans, std::size_t root,
            std::map<std::string, double> &metrics,
            std::map<std::string, double> &detail)
{
    constexpr int kRounds = 3;
    const ExperimentOptions options = experimentOptions(a);
    const WorkloadSet workload(a.seed);
    const std::vector<unsigned> traces =
        probeTraces(workload, options);
    const std::size_t n = options.uopsPerTrace;
    // The pipeline is ~20x slower per uop than the rest; a quarter
    // of the trace keeps its probe as short as the others.
    const std::size_t n_pipe = std::max<std::size_t>(1, n / 4);
    const double per_uop = 1e9 / static_cast<double>(n);
    const double per_pipe_uop = 1e9 / static_cast<double>(n_pipe);

    // trace + cache + scheduler + regfile + pipeline, per trace.
    std::vector<double> setup_us, gen, sim_net, sim_raw, mech, sched,
        regf, pipe_net, pipe_raw;
    CacheConfig dl0;
    const CacheConfig dtlb = CacheConfig::tlb(128, 8);
    RegFileConfig rf_config;
    rf_config.name = "INT-RF";
    rf_config.numEntries = 128;
    rf_config.width = 32;
    RegReplayConfig rf_replay;
    rf_replay.portFreeProb = 0.92;
    rf_replay.commitDelay = 64;
    for (int round = 0; round < kRounds; ++round) {
        for (const unsigned index : traces) {
            std::optional<TraceGenerator> g;
            setup_us.push_back(
                1e6 * timed(spans, root,
                            "trace.generator_setup", [&] {
                                g.emplace(workload.generator(index));
                            }));
            const double t_gen =
                timed(spans, root, "trace.generate", [&] {
                    std::uint64_t sum = 0;
                    for (std::size_t i = 0; i < n; ++i)
                        sum += g->next().srcVal1;
                    g_sink += sum;
                });
            gen.push_back(t_gen * per_uop);

            const auto sim_seconds = [&](MechanismKind mechanism) {
                MemTimingSim sim(dl0, dtlb, MemTimingParams(),
                                 mechanism, MechanismKind::None,
                                 options.mechanismTimeScale);
                TraceGenerator fresh = workload.generator(index);
                return timed(spans, root,
                             std::string("cache.sim.") +
                                 mechanismName(mechanism),
                             [&] {
                                 g_sink += static_cast<std::uint64_t>(
                                     sim.run(fresh, n).cycles);
                             });
            };
            const double t_none = sim_seconds(MechanismKind::None);
            const double t_mech =
                sim_seconds(MechanismKind::LineFixed50);
            sim_raw.push_back(t_none * per_uop);
            sim_net.push_back((t_none - t_gen) * per_uop);
            mech.push_back((t_mech - t_none) * per_uop);

            const Trace trace = workload.generate(index, n);
            {
                Scheduler sched_model{SchedulerConfig{}};
                SchedReplayConfig cfg;
                cfg.seed = mixSeed(cfg.seed, index);
                SchedulerReplay replay(sched_model, cfg);
                BufferGen buffer(trace.uops);
                sched.push_back(
                    per_uop *
                    timed(spans, root, "scheduler.replay", [&] {
                        g_sink += replay.run(buffer, n).cycles;
                    }));
            }
            {
                RegisterFile rf(rf_config);
                RegReplayConfig cfg = rf_replay;
                cfg.seed = mixSeed(rf_replay.seed, index);
                RegFileReplay replay(rf, cfg);
                BufferGen buffer(trace.uops);
                regf.push_back(
                    per_uop *
                    timed(spans, root, "regfile.replay", [&] {
                        g_sink += replay.run(buffer, n).writes;
                    }));
            }
            {
                Pipeline pipe{PipelineConfig{}};
                TraceGenerator fresh = workload.generator(index);
                const double t_pipe =
                    timed(spans, root, "pipeline.run", [&] {
                        g_sink += pipe.run(fresh, n_pipe).cycles;
                    });
                pipe_raw.push_back(t_pipe * per_pipe_uop);
                pipe_net.push_back(t_pipe * per_pipe_uop -
                                   t_gen * per_uop);
            }
        }
    }
    metrics["trace.generator_setup_us"] = median(setup_us);
    metrics["trace.gen_ns_per_uop"] = median(gen);
    metrics["cache.sim_ns_per_uop"] = median(sim_net);
    metrics["cache.mech_ns_per_uop"] = median(mech);
    metrics["scheduler.replay_ns_per_uop"] = median(sched);
    metrics["regfile.replay_ns_per_uop"] = median(regf);
    metrics["pipeline.run_ns_per_uop"] = median(pipe_net);
    detail["cache.sim_raw_ns_per_uop"] = median(sim_raw);
    detail["pipeline.run_raw_ns_per_uop"] = median(pipe_raw);

    // circuit + nbti: the attack search's exact engine and
    // surrogate, on candidates drawn from the workload seed.
    {
        LadnerFischerAdder adder(32);
        const AdderAgingAnalysis analysis(
            adder, GuardbandModel::paperCalibrated());
        Rng rng(mixSeed(options.surrogateSeed, 0x9e0be));
        std::vector<double> eval_us;
        for (int i = 0; i < 16; ++i) {
            const auto ops = candidateOperands(
                randomAttackCandidate(rng),
                options.attackSearchExactSamples);
            eval_us.push_back(
                1e6 *
                timed(spans, root, "circuit.netlist_eval", [&] {
                    g_sink += analysis.zeroProbsForOperands(ops)
                                  .size();
                }));
        }
        metrics["circuit.netlist_eval_us"] = median(eval_us);

        std::vector<SurrogateSample> samples(
            options.surrogateTrainCandidates);
        {
            const Scope span(spans, "nbti.surrogate_train_set",
                             root);
            for (SurrogateSample &s : samples) {
                const AttackConfig c = randomAttackCandidate(rng);
                s.features = candidateFeatures(c, adder.width());
                s.score = evaluateCandidateExact(
                              analysis, c,
                              options.attackSearchExactSamples)
                              .score;
            }
        }
        SurrogateFitConfig fit_config;
        fit_config.seed = mixSeed(options.surrogateSeed, 0xf17);
        std::vector<double> fit_ms, predict_ns;
        SurrogateFit fit;
        for (int i = 0; i < 20; ++i) {
            fit_ms.push_back(
                1e3 *
                timed(spans, root, "nbti.surrogate_fit",
                      [&] { fit = fitSurrogate(samples, fit_config); }));
        }
        for (int i = 0; i < 50; ++i) {
            const double t = timed(
                spans, root, "nbti.surrogate_predict", [&] {
                    double sum = 0.0;
                    for (const SurrogateSample &s : samples)
                        sum += fit.predict(s.features);
                    g_sink += static_cast<std::uint64_t>(sum > 0);
                });
            predict_ns.push_back(1e9 * t / samples.size());
        }
        metrics["nbti.surrogate_fit_ms"] = median(fit_ms);
        metrics["nbti.surrogate_predict_ns"] = median(predict_ns);
    }

    // core: engine fan-out on the workload's own pool shape.
    {
        std::optional<ThreadPool> pool;
        if (options.jobs > 1)
            pool.emplace(options.jobs);
        const Engine engine(options.jobs, pool ? &*pool : nullptr);
        const std::vector<unsigned> items(
            options.attackSearchProposals);
        std::vector<double> fanout_us;
        for (int i = 0; i < 220; ++i) {
            const double t = timed(
                spans, root, "core.engine_fanout", [&] {
                    const auto out = engine.map<unsigned>(
                        items,
                        [](unsigned v, std::size_t k) {
                            return v + static_cast<unsigned>(k);
                        });
                    g_sink += out.back();
                });
            if (i >= 20) // first calls wake and warm the workers
                fanout_us.push_back(1e6 * t);
        }
        metrics["core.engine_fanout_us"] = median(fanout_us);
    }

    // core: result-cache store and lookup on a fresh on-disk store,
    // with payloads the size of an encoded CandidateEval.
    if (!a.cacheDir.empty()) {
        ResultCache cache(a.cacheDir);
        ByteWriter payload;
        encodeResult(payload, CandidateEval{});
        std::vector<double> store_us, lookup_us;
        std::vector<Hash128> keys;
        for (std::uint64_t i = 0; i < 256; ++i) {
            keys.push_back(CacheKeyBuilder("perfbench-probe")
                               .u64(a.seed)
                               .u64(i)
                               .digest());
        }
        for (const Hash128 &key : keys) {
            store_us.push_back(
                1e6 * timed(spans, root, "core.resultcache_store",
                            [&] { cache.store(key, payload.view()); }));
        }
        std::string out;
        for (const Hash128 &key : keys) {
            lookup_us.push_back(
                1e6 *
                timed(spans, root, "core.resultcache_lookup",
                      [&] { g_sink += cache.lookup(key, out); }));
        }
        metrics["core.resultcache_store_us"] = median(store_us);
        metrics["core.resultcache_lookup_us"] = median(lookup_us);
    }
    return traces.size();
}

int
probeMode(const Args &a)
{
    SpanLog spans;
    std::map<std::string, double> metrics;
    std::map<std::string, double> detail;
    std::size_t traces = 0;
    {
        const Scope root(spans, "probe");
        traces = probeLayers(a, spans, root.id(), metrics, detail);
    }
    const std::size_t n = experimentOptions(a).uopsPerTrace;

    std::ostringstream report;
    report << "{\"traces\": " << traces << ", \"uops\": " << n
           << ", \"sink\": " << g_sink
           << ", \"metrics\": " << jsonObject(metrics)
           << ", \"detail\": " << jsonObject(detail) << "}\n";
    writeFile(a.report, report.str());
    writeSpans(a, spans);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && !std::strcmp(argv[1], "--version")) {
        std::cout << buildInfoText();
        return 0;
    }
    const Args args = parseArgs(argc, argv);
    try {
        if (args.mode == "run")
            return runMode(args);
        if (args.mode == "probe")
            return probeMode(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 1;
    }
    usageError("unknown mode '" + args.mode + "'");
}
