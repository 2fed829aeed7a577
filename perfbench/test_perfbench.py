#!/usr/bin/env python3
"""Self-tests of the benchmark (not of the program it measures).

    python3 perfbench/test_perfbench.py

The harness-backed tests build perfbench_harness first (as run.py does)
and use tiny workload sizes, so the suite takes seconds once built.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"
PAPER_SEED = "0x50454e454c4f50"


def span(rep, sid, parent, name, start, end):
    return {"rep": rep, "id": sid, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            span(0, 1, 0, "root", 0, 100),
            span(0, 2, 1, "a", 10, 40),    # overlaps b: a parallel pair
            span(0, 3, 1, "b", 30, 60),
            span(0, 4, 2, "a.child", 15, 20),
            span(0, 5, 1, "late", 90, 120),  # runs past its parent
            # Same ids in another repetition must not mix with rep 0.
            span(1, 1, 0, "root", 0, 10),
            span(1, 2, 1, "a", 0, 10),
        ]
        own = run.self_times(spans)
        self.assertEqual(own[(0, 1)], 100 - 50 - 10)
        self.assertEqual(own[(0, 2)], 30 - 5)
        self.assertEqual(own[(0, 3)], 30)
        self.assertEqual(own[(0, 4)], 5)
        self.assertEqual(own[(0, 5)], 30)
        self.assertEqual(own[(1, 1)], 0)
        self.assertEqual(own[(1, 2)], 10)
        by_name = run.self_time_by_name(spans)
        self.assertEqual(by_name["root"], 40)
        self.assertEqual(by_name["a"], 35)

    def test_nested_children_count_once(self):
        spans = [span(0, 1, 0, "root", 0, 10),
                 span(0, 2, 1, "x", 2, 8),
                 span(0, 3, 1, "y", 3, 5)]
        self.assertEqual(run.self_times(spans)[(0, 1)], 4)


class Names(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)
        self.config = run.load_config()

    def test_grammar(self):
        for good in ("wall_s", "core.experiment.attack-search_s", "0x"):
            self.assertRegex(good, NAME_RE)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "café"):
            self.assertNotRegex(bad, NAME_RE)

    def test_every_name_and_unit(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for key in ("end_to_end", "per_layer"):
            for m in self.bench[key]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT_RE)
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_names_what_workloads_json_documents(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(self.config["workloads"]))
        for key in ("end_to_end", "per_layer"):
            self.assertEqual({m["name"] for m in self.bench[key]},
                             set(self.config[key]))


class Reference(unittest.TestCase):
    def test_pinned_digests_cover_both_named_seeds(self):
        config = run.load_config()
        for name in config["workloads"]:
            for label in ("default", "held_out"):
                pinned = run.pinned_digest(
                    config, name, run.parse_seed(label, config))
                self.assertEqual(pinned[0], label)
            self.assertIsNone(run.pinned_digest(config, name, 101))

    def test_a_pinned_digest_mismatch_is_reported(self):
        w = {"expect": ["x"]}
        self.assertIsNone(run.check_reference(w, None, b"x\n"))
        self.assertIn("digest", run.check_reference(
            w, ("held_out", "0" * 64), b"x\n"))


class Harness(unittest.TestCase):
    """Tests that drive the built harness at tiny sizes."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-test-",
                                   dir=run.BUILD)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def tiny(self, experiments="table3"):
        return {"experiments": experiments.split(","), "stride": 128,
                "uops": 3000, "jobs": 2, "result_cache": False,
                "expect": []}

    def test_failed_frac_counts_a_mismatched_reference(self):
        r = run.Run("selftest", self.tiny(), 5, 0, False, None)
        r.reference = b"deliberately not the rendering\n"
        # Set-up-only launches render nothing to check, so they must
        # not dilute failed / attempted.
        for _ in range(2):
            self.assertGreater(r.setup_only(), 0)
        for _ in range(3):
            self.assertFalse(r.repetition(2)["ok"])
        self.assertEqual((r.attempted, len(r.failures)), (3, 3))
        # The true reference makes the same repetitions pass.
        r.make_reference()
        self.assertTrue(r.repetition(2)["ok"])
        self.assertEqual((r.attempted, len(r.failures)), (4, 3))

    def test_crash_counts_as_failed(self):
        rep = run.Launcher(self.tmp).launch(
            "run", ["--experiments", "no-such-experiment"])
        self.assertFalse(rep["ok"])
        self.assertIsNotNone(run.judge(b"", rep))

    def test_probe_sanity(self):
        flags = run.workload_flags(self.tiny(), 9, 2)
        rep = run.Launcher(self.tmp).launch("probe", flags, cache=True,
                                            trace=True)
        self.assertTrue(rep["ok"], rep["error"])
        metrics = rep["report"]["metrics"]
        detail = rep["report"]["detail"]
        per_uop = [n for n in metrics if n.endswith("_ns_per_uop")]
        self.assertEqual(len(per_uop), 6)
        for name in per_uop:
            self.assertGreater(metrics[name], 0, name)
        # Generation is subtracted: net < raw for both layers that pull
        # from a live generator.
        for layer, raw in (("cache.sim_ns_per_uop",
                            "cache.sim_raw_ns_per_uop"),
                           ("pipeline.run_ns_per_uop",
                            "pipeline.run_raw_ns_per_uop")):
            self.assertLess(metrics[layer], detail[raw])
        names = {s["name"] for s in rep["spans"]}
        self.assertIn("trace.generate", names)
        self.assertIn("circuit.netlist_eval", names)

    def test_harness_renders_what_the_cli_renders(self):
        # At the paper seed the harness must print exactly what
        # penelope_bench prints for the same options.
        for experiments in ("table3,fig6", "attack-search"):
            w = self.tiny(experiments)
            flags = run.workload_flags(w, int(PAPER_SEED, 16), 2)
            ours = run.Launcher(self.tmp).launch("run", flags, cache=True)
            self.assertTrue(ours["ok"], ours["error"])
            cli = subprocess.run(
                [run.CLI] + w["experiments"] +
                ["--stride", "128", "--uops", "3000", "--jobs", "2"],
                capture_output=True, check=True).stdout
            self.assertEqual(ours["stdout"], cli, experiments)


if __name__ == "__main__":
    unittest.main()
