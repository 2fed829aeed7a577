#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload cache_grid --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed default

Run from the repository root.  Builds perfbench_harness and
penelope_bench from source into .bench_build/perfbench, renders one
jobs-1, cache-free reference of the workload, then launches fresh-process
repetitions for --seconds seconds and checks every repetition's stdout
against the reference byte for byte.

--trace 0 reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); --trace 1 reports the per-layer metrics (program counters
scraped around each experiment call, layer probes, the jobs-1 speed-up
and the tracing overhead) and writes every benchmark-side span to
spans.json.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; failed / attempted is
failed_frac.  Workload options, seeds and metric documentation live in
perfbench/workloads.json.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
CLI = os.path.join(BUILD, "penelope", "penelope_bench")

CHILD_TIMEOUT_S = 60
MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_ONLY_LAUNCHES = 30

# Program counters behind each counted layer (harness.cc scrapes them).
LAYER_COUNTERS = {
    "cache": ["cache_model.drains"],
    "scheduler": ["scheduler.drains"],
    "regfile": ["regfile.drains"],
    "circuit": ["netlist.batch_evals"],
    "nbti": ["surrogate.fits", "surrogate.scored",
             "surrogate.train_evals"],
    "resultcache": ["cache.hits", "cache.misses", "cache.stores"],
}


class BenchError(Exception):
    """Set-up failure: no result line is printed and the exit code is 1."""


def load_config():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def parse_seed(text, config):
    seeds = config["seeds"]
    if text in ("default", "held_out"):
        text = seeds[text]
    value = int(text, 10) if text.isdigit() else int(text, 0)
    return value % 2**64  # WorkloadSet takes a 64-bit seed


# ------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no penelope sources at " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench_harness", "penelope_bench"])


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("build step failed: " + " ".join(cmd))


def steal_seconds():
    """CPU time the hypervisor took from this VM, summed over all CPUs
    (the `steal` column of /proc/stat); None where it is not exposed."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    build_type = "unknown"
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                out = subprocess.run([path, "--version"], text=True,
                                     capture_output=True).stdout
                compiler = out.splitlines()[0] if out else path
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    version = subprocess.run([CLI, "--version"], text=True,
                             capture_output=True, check=True).stdout
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": compiler, "build_type": build_type,
            "penelope_bench_version": version.strip().splitlines()}


# ------------------------------------------------------- processes

def workload_flags(w, seed, jobs):
    flags = ["--experiments", ",".join(w["experiments"]),
             "--seed", str(seed), "--stride", str(w["stride"]),
             "--uops", str(w["uops"]), "--jobs", str(jobs)]
    for key in ("passes", "restarts", "generations"):
        if key in w:
            flags += ["--" + key, str(w[key])]
    return flags


class Launcher:
    """Fresh harness processes, each with its own report and span files
    under one run directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.next_id = 0

    def launch(self, mode, flags, cache=False, trace=False,
               setup_only=False):
        rep = self.next_id
        self.next_id += 1
        report = os.path.join(self.workdir, "report%d.json" % rep)
        spans = os.path.join(self.workdir, "spans%d.json" % rep)
        cmd = [HARNESS, mode] + flags + ["--report", report,
                                         "--rep-id", str(rep)]
        cache_dir = os.path.join(self.workdir, "cache%d" % rep)
        if cache:
            cmd += ["--cache-dir", cache_dir]
        if trace:
            cmd += ["--trace", "--spans", spans]
        if setup_only:
            cmd.append("--setup-only")
        result = {"rep": rep, "ok": False, "stdout": b"", "report": None,
                  "spans": [], "error": ""}
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result["error"] = "timed out"
            return result
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        result["stdout"] = proc.stdout
        if proc.returncode != 0:
            result["error"] = "exit %d: %s" % (
                proc.returncode, proc.stderr.decode(errors="replace")[-500:])
            return result
        try:
            with open(report) as f:
                result["report"] = json.load(f)
            if trace:
                with open(spans) as f:
                    result["spans"] = json.load(f)
        except (OSError, ValueError) as e:
            result["error"] = "unreadable report: %s" % e
            return result
        if "setup_mono_ns" in result["report"]:
            result["setup_s"] = (result["report"]["setup_mono_ns"] * 1e-9
                                 - t_spawn)
        result["ok"] = True
        return result


def judge(reference, rep):
    """A repetition passes when it exited cleanly and its stdout matches
    the reference byte for byte."""
    if not rep["ok"]:
        return rep["error"] or "failed"
    if rep["stdout"] != reference:
        return "stdout differs from the jobs-1 reference"
    return None


def pinned_digest(config, name, seed):
    """The SHA-256 pinned in workloads.json for this workload's
    reference at @p seed, when @p seed is one of the named seeds."""
    for label, digest in config["workloads"][name][
            "reference_sha256"].items():
        if parse_seed(label, config) == seed:
            return label, digest
    return None


def check_reference(w, pinned, stdout):
    text = stdout.decode(errors="replace")
    for marker in w["expect"]:
        if marker not in text:
            return "reference lacks %r" % marker
    if re.search(r"\b(nan|-?inf)\b", text, re.IGNORECASE):
        return "reference contains nan/inf"
    if pinned:
        label, want = pinned
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != want:
            return "%s-seed reference digest %s != %s" % (label, digest,
                                                          want)
    return None


# ------------------------------------------------------------ spans

def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its children cover (children may overlap; the union
    counts once).  Spans are keyed by (rep, id)."""
    children = defaultdict(list)
    for s in spans:
        children[(s["rep"], s["parent"])].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        parts = sorted((max(c["start_ns"], lo), min(c["end_ns"], hi))
                       for c in children[(s["rep"], s["id"])])
        covered = 0
        cur_lo = cur_hi = None
        for a, b in parts:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[(s["rep"], s["id"])] = (hi - lo) - covered
    return out


def self_time_by_name(spans):
    own = self_times(spans)
    totals = defaultdict(int)
    for s in spans:
        totals[s["name"]] += own[(s["rep"], s["id"])]
    return dict(totals)


# ------------------------------------------------------------ metrics

def ratio(num, den):
    return num / den if den else 0.0


def experiment_seconds(rep):
    """Seconds per experiment name, summed over the repetition's passes."""
    totals = defaultdict(float)
    for e in rep["report"]["experiments"]:
        totals[e["name"]] += e["wall_s"]
    return totals


def counter_totals(rep):
    totals = defaultdict(int)
    for e in rep["report"]["experiments"]:
        for name, value in e["counters"].items():
            totals[name] += value
    return totals


def layer_metrics_from_counters(c):
    return {
        "cache.model_drains": c["cache_model.drains"],
        "scheduler.drains": c["scheduler.drains"],
        "regfile.drains": c["regfile.drains"],
        "circuit.netlist_batch_evals": c["netlist.batch_evals"],
        "circuit.lane_util": ratio(c["netlist.lanes_used"],
                                   c["netlist.lane_capacity"]),
        "nbti.surrogate_exact_evals": c["surrogate.exact_evals"],
        "nbti.surrogate_train_evals": c["surrogate.train_evals"],
        "nbti.surrogate_prune_ratio": ratio(c["surrogate.pruned"],
                                            c["surrogate.scored"]),
        "core.engine_tasks": c["engine.tasks"],
        "core.resultcache_hits": c["cache.hits"],
        "core.resultcache_misses": c["cache.misses"],
        "core.resultcache_stores": c["cache.stores"],
        "core.resultcache_hit_ratio": ratio(
            c["cache.hits"], c["cache.hits"] + c["cache.misses"]),
    }


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------- runs

class Run:
    def __init__(self, name, w, seed, seconds, trace, pinned):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.pinned = pinned
        self.workdir = os.path.join(
            BUILD, "runs", "%s-seed%d-trace%d" % (name, seed, int(trace)))
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.launcher = Launcher(self.workdir)
        self.attempted = 0
        self.failures = []
        self.reference = None

    def flags(self, jobs):
        return workload_flags(self.w, self.seed, jobs)

    def make_reference(self):
        ref = self.launcher.launch("run", self.flags(1), trace=self.trace)
        if not ref["ok"]:
            raise BenchError("reference run failed: " + ref["error"])
        problem = check_reference(self.w, self.pinned, ref["stdout"])
        if problem:
            raise BenchError(problem)
        self.reference = ref["stdout"]
        return ref

    def repetition(self, jobs, trace=False):
        rep = self.launcher.launch("run", self.flags(jobs),
                                   cache=self.w["result_cache"],
                                   trace=trace)
        self.attempted += 1
        problem = judge(self.reference, rep)
        if problem:
            self.failures.append("rep %d: %s" % (rep["rep"], problem))
            rep["ok"] = False
        return rep

    def setup_only(self):
        """A launch that stops at the first experiment call.  It renders
        nothing, so it is not a repetition: it is not counted in
        attempted, and a failure aborts the run."""
        rep = self.launcher.launch("run", self.flags(self.w["jobs"]),
                                   cache=self.w["result_cache"],
                                   setup_only=True)
        if not rep["ok"]:
            raise BenchError("set-up-only launch failed: " + rep["error"])
        return rep["setup_s"]

    def end_to_end(self):
        self.make_reference()
        setups = [self.setup_only() for _ in range(SETUP_ONLY_LAUNCHES)]
        reps = []
        t0 = time.monotonic()
        while time.monotonic() - t0 < self.seconds or len(reps) < MIN_REPS:
            reps.append(self.repetition(self.w["jobs"]))
        good = [r for r in reps if r["ok"]]
        setups += [r["setup_s"] for r in good]
        samples = {
            "wall_s": [r["report"]["wall_s"] for r in good],
            "cpu_s": [r["report"]["cpu_s"] for r in good],
            "setup_s": setups,
            "peak_rss_mb": [r["report"]["peak_rss_kb"] / 1024.0
                            for r in good],
        }
        metrics = {k: median(v) for k, v in samples.items()}
        return metrics, samples, {}

    def per_layer(self):
        jobs = self.w["jobs"]
        ref = self.make_reference()
        # The jobs-1 pass: the traced reference itself when the workload
        # runs cache-free, else a traced jobs-1 repetition with its cache.
        j1 = ref if not self.w["result_cache"] else self.repetition(1, True)
        plain, traced = [], []
        t0 = time.monotonic()
        while (time.monotonic() - t0 < self.seconds
               or len(traced) < MIN_TRACED_REPS):
            plain.append(self.repetition(jobs))
            traced.append(self.repetition(jobs, trace=True))
        plain = [r for r in plain if r["ok"]]
        traced = [r for r in traced if r["ok"]]
        probe = self.launcher.launch("probe", self.flags(jobs), cache=True,
                                     trace=True)
        if not (j1["ok"] and plain and traced and probe["ok"]):
            raise BenchError("traced run failed: " + "; ".join(
                self.failures + [probe["error"]]))

        traced_wall = median([r["report"]["wall_s"] for r in traced])
        plain_wall = median([r["report"]["wall_s"] for r in plain])
        counters = counter_totals(traced[0])
        metrics = dict(probe["report"]["metrics"])
        metrics.update(layer_metrics_from_counters(counters))
        metrics["core.parallel_speedup"] = ratio(j1["report"]["wall_s"],
                                                 traced_wall)
        metrics["obs.trace_overhead"] = ratio(traced_wall, plain_wall) - 1

        spans = j1["spans"] + sum((r["spans"] for r in traced), []) + \
            probe["spans"]
        with open(os.path.join(self.workdir, "spans.json"), "w") as f:
            json.dump(spans, f)
        per_rep = [experiment_seconds(r) for r in traced]
        extra = {
            "experiments_jobs1_s": dict(experiment_seconds(j1)),
            "experiments_traced_s": {
                name: median([t[name] for t in per_rep])
                for name in per_rep[0]},
            "jobs1_counters": counter_totals(j1),
            "counters": counters,
            "self_time_s": {k: v * 1e-9 for k, v in
                            self_time_by_name(spans).items()},
            "probe_detail": probe["report"]["detail"],
            "idle_layer_findings": idle_layer_findings(self.w, counters),
        }
        samples = {"traced_wall_s": [r["report"]["wall_s"] for r in traced],
                   "untraced_wall_s": [r["report"]["wall_s"] for r in plain]}
        return metrics, samples, extra


def idle_layer_findings(w, counters):
    """Layers the workload is documented not to exercise but whose
    counters moved: recorded as found, never hidden."""
    found = []
    for layer in w["idle_layers"]:
        moved = {c: counters[c] for c in LAYER_COUNTERS[layer]
                 if counters.get(c)}
        if moved:
            found.append("%s did work: %s" % (layer, moved))
    return found


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in bench[key]]


def run_workload(name, seed, seconds, trace, config, host):
    run = Run(name, config["workloads"][name], seed, seconds, trace,
              pinned_digest(config, name, seed))
    w = run.w
    sizing = ", ".join("%s %d" % (k, w[k]) for k in (
        "stride", "uops", "jobs", "passes", "restarts", "generations")
        if k in w)
    print("perfbench: workload %s seed %#x (%s; %s; %s)" % (
        name, seed, " ".join(w["experiments"]), sizing,
        "fresh result cache per repetition" if w["result_cache"]
        else "no result cache"))
    print("host: %d cpus, %s, %s (%s); %s" % (
        host["nproc"], host["cpu_model"], host["compiler"],
        host["build_type"], ", ".join(
            " ".join(l.split()) for l in host["penelope_bench_version"][1:])))
    steal0, t0 = steal_seconds(), time.monotonic()
    metrics, samples, extra = (run.per_layer() if trace
                               else run.end_to_end())
    steal1, elapsed = steal_seconds(), time.monotonic() - t0
    # The host's noise band: on a shared host, stolen CPU time slows
    # every repetition, parallel ones most.
    noise = None
    if steal0 is not None and steal1 is not None:
        noise = {"steal_s": steal1 - steal0, "elapsed_s": elapsed,
                 "steal_share": ratio(steal1 - steal0,
                                      elapsed * (os.cpu_count() or 1))}
    failed = len(run.failures)
    units = expected_metrics(trace)
    missing = [n for n, _ in units if n not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    for n, unit in units:
        line = "  %-28s %14.6g %s" % (n, metrics[n], unit)
        if n in samples:
            line += "  (median of %d)" % len(samples[n])
        print(line)
    print("  %-28s %14.6g 1  (%d failed / %d attempted)" % (
        "failed_frac", ratio(failed, run.attempted), failed,
        run.attempted))
    for problem in run.failures:
        print("  FAILED " + problem)
    for key in ("experiments_jobs1_s", "experiments_traced_s"):
        for e, s in extra.get(key, {}).items():
            print("  %-42s %14.6g s" % (
                "core.experiment.%s_s (%s)" % (e, key.split("_")[1]), s))
    for finding in extra.get("idle_layer_findings", []):
        print("  finding: " + finding)
    if noise:
        print("  host steal: %.2f s over %.1f s (%.1f%% of %d cpus)" % (
            noise["steal_s"], noise["elapsed_s"],
            100 * noise["steal_share"], os.cpu_count() or 1))
    if trace:
        top = sorted(extra["self_time_s"].items(), key=lambda kv: -kv[1])
        print("  self time by span: " + ", ".join(
            "%s %.3fs" % kv for kv in top[:8]))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
    }
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", os.path.basename(
            run.workdir) + ".json"), "w") as f:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "host": host, "result": result,
                   "host_noise": noise, "samples": samples,
                   "failures": run.failures, "extra": extra}, f, indent=1)
    return result


def main(argv=None):
    config = load_config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(config["workloads"]) + ["all"])
    ap.add_argument("--seed", default="default",
                    help="integer (0x.. accepted), 'default' or 'held_out'")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        seed = parse_seed(args.seed, config)
        build()
        host = host_record()
        names = (sorted(config["workloads"]) if args.workload == "all"
                 else [args.workload])
        results = {n: run_workload(n, seed, args.seconds,
                                   bool(args.trace), config, host)
                   for n in names}
    except (BenchError, ValueError, OSError,
            subprocess.CalledProcessError) as e:
        print("perfbench: error:", e, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, m): v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
