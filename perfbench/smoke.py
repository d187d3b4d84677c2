#!/usr/bin/env python3
"""Smoke test of the benchmark; takes about 70 seconds.

    python3 perfbench/smoke.py        # from the repository root

Runs each workload briefly, with and without tracing, and checks that every
metric BENCHMARK.json names is reported, that the traced counts repeat
exactly, that corrupted command results count as failures, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import setup_probe  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], run.per_layer_names())
        for metric in SPEC["per_layer"]:
            self.assertEqual(metric["unit"], run.per_layer_unit(metric["name"]), metric["name"])


class Workloads(unittest.TestCase):
    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for name in workloads.WORKLOAD_NAMES:
            for key in ((name, 0), (name, 1), (name, "1-again")):
                cls.results[key] = bench(name, 1 if key[1] else 0)

    def test_every_metric_is_reported(self):
        for (name, trace), (status, result, stderr) in self.results.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(status, 0, stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                self.assertEqual(
                    {m: v["unit"] for m, v in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in expected},
                )

    def test_failures_are_counted(self):
        for name in workloads.WORKLOAD_NAMES:
            result = self.results[name, 0][1]
            ok_frac = result["metrics"]["ok_frac"]["value"]
            self.assertAlmostEqual(ok_frac, 1 - result["failed"] / result["attempted"])
        # At this commit only `invariants K3 -n 400` fails: 1 of 7 commands.
        self.assertAlmostEqual(self.results["symbolic-ladder", 0][1]["metrics"]["ok_frac"]["value"],
                               6 / 7)
        self.assertEqual(self.results["dense-verify", 0][1]["failed"], 0)
        self.assertEqual(self.results["large-graph", 0][1]["failed"], 0)

    def test_trace_counts_repeat_exactly(self):
        for name in workloads.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                first = self.results[name, 1][1]["metrics"]
                again = self.results[name, "1-again"][1]["metrics"]
                for metric in run.COUNTS:
                    self.assertEqual(first[metric]["value"], again[metric]["value"], metric)


class Corruption(unittest.TestCase):
    """A wrong result, a failing verify and unstable stdout each count as failures."""

    def setUp(self):
        work = ROOT / run.WORK_DIR
        work.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(dir=work))
        self.addCleanup(shutil.rmtree, self.directory, True)
        warmup = workloads.warmup_input(self.directory)
        _, self.cli = setup_probe.timed_setup(str(ROOT / "src"), warmup)
        verify = workloads.build("dense-verify", 1, self.directory).commands[0]
        large = workloads.build("large-graph", 1, self.directory).commands
        self.commands = [verify, large[0], large[3]]  # verify K2, triangulate K3, analyze
        self.calls = 0

    def corrupted_main(self, argv):
        self.calls += 1
        if argv[0] == "verify":
            return 1
        out = io.StringIO()
        with redirect_stdout(out):
            status = self.cli.main(argv)
        text = out.getvalue()
        if argv[0] == "analyze":
            text = text.replace("n_vertices: ", "n_vertices: 1")  # 9843 becomes 19843
        if argv[0] == "triangulate" and self.calls > len(self.commands):
            text += "# second pass\n"
        sys.stdout.write(text)
        return status

    def run_twice(self, main):
        runner = run.Runner(type("FakeCli", (), {"main": staticmethod(main)}))
        for _ in range(2):
            for command in self.commands:
                runner.execute(command, traced=False)
        return runner

    def test_clean_results_pass(self):
        runner = self.run_twice(self.cli.main)
        self.assertEqual(runner.failures, {})
        self.assertEqual(runner.incorrect, [])

    def test_corrupted_results_fail(self):
        runner = self.run_twice(self.corrupted_main)
        failed = {label: count for label, (count, _) in runner.failures.items()}
        verify, triangulate, analyze = (c.label for c in self.commands)
        self.assertEqual(failed, {verify: 2, analyze: 2, triangulate: 1})
        self.assertTrue(runner.failures[verify][1].startswith("exit 1"))
        self.assertEqual(runner.failures[triangulate][1], "stdout differs from an earlier pass")
        self.assertEqual(len(runner.incorrect), 3)


class Refusal(unittest.TestCase):
    def test_refuses_without_package_source(self):
        work = ROOT / run.WORK_DIR
        work.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=work))
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        status, result, stderr = bench("large-graph", 0, cwd=bare)
        self.assertNotEqual(status, 0)
        self.assertIsNone(result)
        self.assertIn("no trispectral package", stderr)


if __name__ == "__main__":
    unittest.main()
