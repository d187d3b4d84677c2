#!/usr/bin/env python3
"""Benchmark of the trispectral command line, one workload per process.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload dense-verify --seed 7 --seconds 36 --trace 0

A single client drives `trispectral.cli.main(argv)` in-process in a closed
loop: passes over the workload's command list, in an order drawn from the
seed, until `--seconds` have elapsed.  Every output is checked against values
the benchmark derives itself.  With `--trace 0` the last stdout line reports
the end-to-end metrics; with `--trace 1` it reports per-layer metrics from a
run that alternates untraced and traced passes.  The line before it holds
the details: per-command times, failures, the tail percentile used and the
environment.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import setup_probe
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: span self times (s) and exact per-pass counts.
SELF_TIMES = (
    "numeric.spanning_trees_matrix_tree",
    "numeric.resistance_distances",
    "numeric.eigenvalues_sym",
    "numeric.normalized_laplacian",
    "spectra.build_descriptor",
    "spectra.reciprocal_sum",
    "spectra.descriptor_for",
    "spectra.expand_descriptor",
    "invariants.verify_all",
    "invariants.closed_forms",
    "invariants.recursions",
    "invariants.seed_data",
    "invariants.SpanningTreeCount.json_value",
    "graph.parse_edge_list",
    "graph.Graph.from_edges",
    "graph.triangulate",
    "graph.analyze",
    "graph.format_edge_list",
    "cli",
)
COUNTS = (
    "numeric.spanning_trees_matrix_tree.calls",
    "numeric.spanning_trees_matrix_tree.order3_sum",
    "numeric.resistance_distances.order3_sum",
    "numeric.eigenvalues_sym.calls",
    "numeric.eigenvalues_sym.order3_sum",
    "spectra.build_descriptor.calls",
    "spectra.build_descriptor.bands_out",
    "spectra.expand_descriptor.values_out",
    "invariants.verify_all.depths",
    "invariants.verify_all.oracle_depths",
    "invariants.kappa.calls",
    "graph.Graph.from_edges.calls",
    "graph.triangulate.vertices_out",
    "cli.stdout_bytes",
)

# Counts that must be nonzero on each workload: the layers that do its work.
# A zero here means a wrapper missed a binding site.
NONZERO = {
    "symbolic-ladder": (
        "spectra.build_descriptor.calls", "spectra.build_descriptor.bands_out",
        "spectra.reciprocal_sum.calls", "invariants.verify_all.depths",
        "invariants.verify_all.oracle_depths", "invariants.kappa.calls",
        "invariants.kf_star_recursive.calls", "invariants.SpanningTreeCount.json_value.calls",
        "graph.parse_edge_list.calls", "graph.Graph.from_edges.calls", "cli.stdout_bytes",
    ),
    "dense-verify": (
        "numeric.spanning_trees_matrix_tree.calls",
        "numeric.spanning_trees_matrix_tree.order3_sum",
        "numeric.resistance_distances.order3_sum", "numeric.eigenvalues_sym.calls",
        "numeric.eigenvalues_sym.order3_sum", "numeric.normalized_laplacian.calls",
        "invariants.verify_all.depths", "invariants.verify_all.oracle_depths",
        "invariants.seed_data.calls", "graph.triangulate.vertices_out",
        "graph.Graph.from_edges.calls", "cli.stdout_bytes",
    ),
    "large-graph": (
        "graph.parse_edge_list.calls", "graph.Graph.from_edges.calls",
        "graph.triangulate.vertices_out", "graph.analyze.calls",
        "graph.format_edge_list.calls", "numeric.eigenvalues_sym.calls",
        "numeric.eigenvalues_sym.order3_sum", "spectra.descriptor_for.calls",
        "spectra.expand_descriptor.values_out", "cli.stdout_bytes",
    ),
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = [f"{span}.self_s" for span in SELF_TIMES]
    names.insert(names.index("cli.self_s"), "cli.main.s")
    return names + list(COUNTS) + ["trace.overhead_frac"]


def per_layer_unit(name: str) -> str:
    if name == "trace.overhead_frac":
        return "ratio"
    if name == "cli.stdout_bytes":
        return "bytes"
    return "s" if name.endswith((".self_s", ".s")) else "count"


class Runner:
    """Runs commands, checks their output and keeps every sample.

    A command fails on a nonzero exit status or an uncaught exception, on an
    output check that does not hold, or on stdout that differs from an earlier
    pass of the same run.  The last two also make the run incorrect.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.reference: dict[str, str] = {}  # label -> digest of the first stdout
        self.verdicts: dict[str, object] = {}  # label -> check result for it
        self.samples: list[tuple[bool, str, float, bool]] = []  # traced, label, s, ok
        self.failures: dict[str, list] = {}  # label -> [count, first reason]
        self.incorrect: list[str] = []

    def execute(self, command: workloads.Command, traced: bool) -> tuple[float, int]:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = self.cli.main(list(command.argv))
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a crash is a failed command; keep measuring
            status = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        text = out.getvalue()
        reason = None
        if status != 0:
            lines = err.getvalue().strip().splitlines()
            reason = f"exit {status}" + (f": {lines[0]}" if lines else "")
        else:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if command.label not in self.reference:
                self.reference[command.label] = digest
                try:
                    self.verdicts[command.label] = command.check(text)
                except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                    self.verdicts[command.label] = (
                        f"unreadable output ({type(exc).__name__}: {exc})")
            if self.reference[command.label] != digest:
                reason = "stdout differs from an earlier pass"
            else:
                reason = self.verdicts[command.label]
            if reason is not None:
                self.incorrect.append(f"{command.label}: {reason}")
        if reason is not None:
            self.failures.setdefault(command.label, [0, reason])[0] += 1
        self.samples.append((traced, command.label, elapsed, reason is None))
        return elapsed, len(text.encode())


def run_passes(runner: Runner, workload: workloads.Workload, seed: int, seconds: float,
               tracer=None, probes=None) -> list[dict]:
    """Whole passes until `seconds` have elapsed; with a tracer, untraced and
    traced passes alternate and the run ends after a traced one.  Set-up
    probes that fall due run between passes."""
    order_rng = random.Random(f"{seed}/order")
    passes: list[dict] = []
    start = perf_counter()
    while True:
        if probes is not None:
            probes.run_due(perf_counter() - start)
        traced = tracer is not None and len(passes) % 2 == 1
        order = order_rng.sample(workload.commands, len(workload.commands))
        if traced:
            tracer.install()
        try:
            results = [runner.execute(command, traced) for command in order]
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "seconds": sum(s for s, _ in results),
                  "stdout_bytes": sum(b for _, b in results)}
        if traced:
            record["self_s"], record["inclusive_s"], counts = tracer.take()
            record["counts"] = dict(counts, **{"cli.stdout_bytes": record["stdout_bytes"]})
        passes.append(record)
        if perf_counter() - start >= seconds and (tracer is None or traced):
            return passes


def end_to_end(runner: Runner, passes, setup_samples) -> tuple[dict, dict]:
    ok_times = sorted(s for traced, _, s, ok in runner.samples if ok and not traced)
    if not ok_times:
        raise RuntimeError("no command succeeded")
    # The highest percentile with at least ten samples beyond it is the
    # eleventh-largest sample; a run too short to have one reports its largest.
    tail_index = len(ok_times) - 11 if len(ok_times) > 10 else len(ok_times) - 1
    metrics = {
        "setup_s": statistics.median(setup_samples),
        # The slowest pass: the machine's usual speed sets it, while the
        # median moves with how much of a run fell in its faster spells.
        "pass_s": max(p["seconds"] for p in passes),
        "cmd_p50_ms": 1000 * statistics.median(ok_times),
        "cmd_tail_ms": 1000 * ok_times[tail_index],
        "ok_frac": sum(ok for *_, ok in runner.samples) / len(runner.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail_info = {"percentile": 100 * tail_index / max(1, len(ok_times) - 1),
                 "samples": len(ok_times), "beyond": len(ok_times) - 1 - tail_index}
    return metrics, tail_info


def per_layer(workload_name: str, passes: list[dict], runner: Runner) -> dict:
    traced = [p for p in passes if p["traced"]]
    counts = traced[0]["counts"]
    if any(p["counts"] != counts for p in traced[1:]):
        runner.incorrect.append("trace counts differ between traced passes")
    missing = [name for name in NONZERO[workload_name] if not counts.get(name)]
    if missing:
        runner.incorrect.append(f"trace counts are zero where the layer works: {missing}")

    def median_of(field: str, span: str) -> float:
        return statistics.median(p[field].get(span, 0.0) for p in traced)

    metrics = {f"{span}.self_s": median_of("self_s", span) for span in SELF_TIMES}
    metrics["cli.main.s"] = median_of("inclusive_s", "cli")
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    untraced = statistics.median(p["seconds"] for p in passes if not p["traced"])
    metrics["trace.overhead_frac"] = (
        statistics.median(p["seconds"] for p in traced) / untraced - 1
    )
    return metrics


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):  # numpy older than 1.26
        blas_name = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
    }


class SetupProbes:
    """Set-up time of fresh interpreters, spread evenly over the run.

    The machine's speed drifts over seconds, so probes taken back to back
    would all see one speed; spread out, their median is as steady as the
    other metrics.
    """

    def __init__(self, src: Path, warmup: str, seconds: float) -> None:
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), str(src), warmup]
        self.seconds = seconds
        self.samples: list[float] = []

    def run_due(self, elapsed: float) -> None:
        due = SETUP_PROBES if elapsed >= self.seconds else 1 + int(
            SETUP_PROBES * elapsed / self.seconds)
        while len(self.samples) < due:
            proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120,
                                  check=False)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            self.samples.append(float(proc.stdout.strip().splitlines()[-1]))


def benchmark(args: argparse.Namespace, root: Path, src: Path) -> tuple[dict, dict]:
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = workloads.build(args.workload, args.seed, directory)
        warmup = workloads.warmup_input(directory)
        own_setup, cli = setup_probe.timed_setup(str(src), warmup)
        runner = Runner(cli)
        tracer = probes = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        else:
            probes = SetupProbes(src, warmup, args.seconds)
        passes = run_passes(runner, workload, args.seed, args.seconds, tracer, probes)
        if probes is not None:
            probes.run_due(args.seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if args.trace:
        metrics = per_layer(args.workload, passes, runner)
        units = {name: per_layer_unit(name) for name in metrics}
        tail_info = None
    else:
        metrics, tail_info = end_to_end(runner, passes, probes.samples)
        units = END_TO_END_UNITS
    per_command = defaultdict(list)
    for traced, label, seconds, ok in runner.samples:
        if ok and not traced:
            per_command[label].append(seconds)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_seconds": [round(p["seconds"], 6) for p in passes],
        "fail_frac": sum(not ok for *_, ok in runner.samples) / len(runner.samples),
        "failures": {label: {"count": c, "first": r} for label, (c, r) in runner.failures.items()},
        "incorrect": runner.incorrect[:20],
        "tail": tail_info,
        "setup_samples_s": probes.samples if probes else [],
        "own_setup_s": own_setup,
        "median_ms_by_command": {label: round(1000 * statistics.median(v), 3)
                                 for label, v in sorted(per_command.items())},
        "samples_ms_by_command": {label: [round(1000 * x, 3) for x in v]
                                  for label, v in sorted(per_command.items())},
        "environment": environment(),
    }
    result = {
        "correct": not runner.incorrect,
        "attempted": len(runner.samples),
        "failed": sum(not ok for *_, ok in runner.samples),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "trispectral" / "__init__.py").is_file():
        print(f"error: no trispectral package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        detail, result = benchmark(args, root, src)
    except (RuntimeError, ArithmeticError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
