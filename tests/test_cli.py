"""CLI contract: commands, formats, exit codes, determinism."""

import csv
import dataclasses
import gc
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trispectral
import trispectral.invariants
import trispectral.numeric
import trispectral.spectra
from helpers import corpus
from trispectral.cli import main
from trispectral.graph import format_edge_list, parse_edge_list
from trispectral.spectra import descriptor_for, expand_descriptor

K2 = "0 1\n"
K3 = "0 1\n1 2\n0 2\n"
P3 = "0 1\n1 2\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(K3)
    return path


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text(P3)
    return path


class TestConfig:
    def test_validation(self, k3_file, capsys):
        cases = [
            (["spectrum", "-n", "-1"], "argument -n/--iterations: must be >= 0, got -1"),
            (["verify", "--tol", "0"], "argument --tol: must be a finite number > 0, got 0"),
            (["verify", "--tol", "nan"], "argument --tol: must be a finite number > 0, got nan"),
            (["verify", "--tol", "inf"], "argument --tol: must be a finite number > 0, got inf"),
            (["triangulate", "--cap", "1"], "argument --cap: must be >= 2, got 1"),
        ]
        for (command, *flags), message in cases:
            with pytest.raises(SystemExit) as exc:
                main([command, str(k3_file), *flags])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.rstrip().endswith(message)


class TestAnalyze:
    def test_json(self, k3_file, capsys):
        assert main(["analyze", str(k3_file), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "n_vertices": 3,
            "n_edges": 3,
            "connected": True,
            "bipartite": False,
            "min_degree": 2,
            "max_degree": 2,
        }

    def test_text(self, p3_file, capsys):
        assert main(["analyze", str(p3_file)]) == 0
        out = capsys.readouterr().out
        assert "bipartite: True" in out


class TestTriangulate:
    def test_edge_list_output(self, k3_file, capsys):
        assert main(["triangulate", str(k3_file), "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# 6 vertices, 9 edges\n")
        assert len(out.strip().splitlines()) == 10

    def test_json_equals_edge_list(self, k3_file, capsys):
        assert main(["triangulate", str(k3_file), "-n", "2"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert main(["triangulate", str(k3_file), "-n", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert header == f"# {doc['num_vertices']} vertices, {len(doc['edges'])} edges"
        assert doc["edges"] == [[int(label) for label in line.split()] for line in lines]

    def test_cap_exceeded_exit_code(self, k3_file, capsys):
        assert main(["triangulate", str(k3_file), "-n", "6", "--cap", "100"]) == 3
        err = capsys.readouterr().err
        assert "hint" in err

    def test_cap_exceeded_by_a_count_too_long_to_print(self, k3_file, capsys):
        # 3 + 3 (3^10000 - 1) / 2 vertices: 4,772 digits, past str()'s limit.
        assert main(["triangulate", str(k3_file), "-n", "10000"]) == 3
        err = capsys.readouterr().err
        assert (
            "error: 10000 iterations need about 10^4771 vertices, "
            "explicit-construction cap is 20000\n" in err
        )

    def test_output_file(self, k3_file, tmp_path, capsys):
        out_path = tmp_path / "out.edges"
        assert main(["triangulate", str(k3_file), "-n", "1", "-o", str(out_path)]) == 0
        assert out_path.read_text().startswith("# 6 vertices, 9 edges\n")
        assert capsys.readouterr().out == ""


class TestSpectrum:
    def test_expanded_json(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "1", "--expand"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expanded"] == [0.0, 0.75, 0.75, 1.5, 1.5, 1.5]
        assert [1, "3/2", "3"] in doc["exceptional"]

    def test_expanded_text(self, p3_file, capsys):
        assert main(["spectrum", str(p3_file), "-n", "2", "--expand", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        expanded = expand_descriptor(descriptor_for(parse_edge_list(P3), 2))
        assert lines[-1] == "expanded: " + " ".join(repr(value) for value in expanded)

    def test_symbolic_depth_beyond_any_cap(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "40"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 40

    def test_expansion_cap_exit_code(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "40", "--expand"]) == 3

    def test_expansion_cap_exceeded_by_a_count_too_long_to_print(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "10000", "--expand"]) == 3
        err = capsys.readouterr().err
        assert "error: expansion needs about 10^4771 values, cap is 1000000\n" in err

    def test_expansion_cap_decided_before_the_walk(self, k3_file, capsys):
        # Building this descriptor would take 10^8 generations of ever larger
        # counts; the cap is decided from the seed's counts first.
        assert main(["spectrum", str(k3_file), "-n", "100000000", "--expand"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "error: expansion needs about 10^47712125 values, cap is 1000000\n"
        )

    @pytest.mark.parametrize(
        "fmt,seed,n,first",
        [pytest.param(fmt, K3, 1100, "1.5 / 2^1100", id=fmt) for fmt in ("text", "csv")]
        + [pytest.param(fmt, seed, n, first, id=f"{name}-{n}-{fmt}")
           for fmt in ("text", "csv")
           for name, seed, n, first in [
               ("K3", K3, 1023, "1.5 / 2^1023"), ("K3", K3, 1024, "1.5 / 2^1024"),
               ("K3", K3, 5000, "1.5 / 2^5000"), ("K2", K2, 1023, None),
               ("K2", K2, 1024, "1.5 / 2^1023"), ("K2", K2, 1100, "1.5 / 2^1099"),
               ("K2", K2, 5000, "1.5 / 2^4999")]],
    )
    def test_classes_below_smallest_normal_exit_two(self, tmp_path, capsys, fmt, seed, n, first):
        path = tmp_path / "seed.edges"
        path.write_text(seed)
        code = main(["spectrum", str(path), "-n", str(n), "--format", fmt])
        captured = capsys.readouterr()
        if first is None:  # K2's classes are all normal doubles through depth 1023
            assert code == 0 and captured.err == ""
            return
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: value outside double-precision range at this depth "
            f"(eigenvalue {first} is below the smallest normal double)\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_classes_limit_decided_before_the_walk(self, k3_file, capsys, monkeypatch, fmt):
        # 10^8 generations of ever larger counts would exhaust memory; the walk
        # is cut after 1,023 steps so that walking at all fails at once.
        walk = trispectral.spectra.generations

        def cut(*args):
            yield from itertools.islice(walk(*args), 1023)
            raise AssertionError("walked past depth 1023")

        monkeypatch.setattr(trispectral.spectra, "generations", cut)
        assert main(["spectrum", str(k3_file), "-n", "100000000", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(eigenvalue 1.5 / 2^100000000 is below the smallest normal double)" in captured.err

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_text_and_csv_classes_are_the_spectrum(self, tmp_path, capsys, name):
        # Every listed class is an eigenvalue (multiplicity >= 1), values strictly
        # increase, and the multiplicities add up to the vertex count N_n.
        path = tmp_path / "seed.edges"
        path.write_text(format_edge_list(corpus()[name]))
        for n in range(13):
            assert main(["spectrum", str(path), "-n", str(n), "--format", "text"]) == 0
            head, text = capsys.readouterr().out.split("classes (value x multiplicity):\n")
            total = int(head.split("total eigenvalues: ")[1].split("\n")[0])
            assert main(["spectrum", str(path), "-n", str(n), "--format", "csv"]) == 0
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
            listed = [line.strip().split(" x ") for line in text.splitlines()]
            for classes in (listed, rows):
                values = [float(value) for value, _ in classes]
                mults = [int(mult) for _, mult in classes]
                assert min(mults) >= 1, (name, n)
                assert all(a < b for a, b in zip(values, values[1:])), (name, n)
                assert sum(mults) == total, (name, n)

    def test_expand_has_no_csv_form(self, k3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", str(k3_file), "-n", "1", "--expand", "--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --expand: not allowed with --format csv" in captured.err

    def test_classes_at_smallest_normal_depth(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "1022", "--format", "text"]) == 0
        classes = capsys.readouterr().out.split("classes (value x multiplicity):\n")[1]
        values = [float(line.split(" x ")[0]) for line in classes.splitlines()]
        assert values[0] == 0.0
        assert values[1] == 1.5 * 2.0**-1022  # the seed class 3/2, halved 1022 times
        assert all(v > 0.0 for v in values[1:])

    @pytest.mark.parametrize(
        "seed,n,expand",
        [(K3, 0, False), (K3, 1, False), (K3, 7, False), (K3, 2000, False),
         (P3, 0, False), (P3, 1, False), (P3, 300, False),
         (K3, 0, True), (K3, 1, True), (K3, 2, True), (K3, 7, True), (P3, 0, True),
         (P3, 1, True), (P3, 3, True)],
    )
    def test_json_equals_encoder_layout(self, tmp_path, capsys, seed, n, expand):
        # The templated band and expanded lists must be what json.dumps would
        # print, with multiplicities rendered by str(int).
        path = tmp_path / "seed.edges"
        path.write_text(seed)
        d = descriptor_for(parse_edge_list(seed), n)
        doc = {
            "n": d.n, "n0": d.n0, "e0": d.e0, "bipartite_seed": d.bipartite_seed,
            "seed_eigs": [[value, mult] for value, mult in d.seed_eigs],
            "exceptional": [
                [i // 2 + 1, ("3/2", "1")[i % 2], str(mult)] for i, mult in enumerate(d.exceptional)
            ],
        }
        if expand:
            doc["expanded"] = expand_descriptor(d)
        argv = ["spectrum", str(path), "-n", str(n)] + (["--expand"] if expand else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_text_and_csv_classes_equal_int_rendering(self, k3_file, capsys):
        d = descriptor_for(parse_edge_list(K3), 1022)
        classes = sorted(d.eigenvalue_classes(), key=lambda pair: pair[0])
        assert main(["spectrum", str(k3_file), "-n", "1022", "--format", "text"]) == 0
        text = capsys.readouterr().out.split("classes (value x multiplicity):\n")[1]
        assert text == "".join(f"  {value!r} x {str(mult)}\n" for value, mult in classes)
        assert main(["spectrum", str(k3_file), "-n", "1022", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["value", "multiplicity"]] + [
            [repr(value), str(mult)] for value, mult in classes
        ]

    def test_json_unaffected_at_extreme_depth(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "2000"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2000


class TestInvariants:
    def test_table_row(self, k3_file, capsys):
        assert main(["invariants", str(k3_file), "-n", "2", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0].startswith("n,")
        last = rows[-1].split(",")
        assert last[0] == "2"
        assert float(last[3]) == pytest.approx(882.0, rel=1e-9)
        assert float(last[4]) == pytest.approx(49 / 3, rel=1e-9)
        assert last[5] == "209952"

    def test_json_spanning_trees_are_strings(self, k3_file, capsys):
        assert main(["invariants", str(k3_file), "-n", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"][1]["spanning_trees"] == "54"

    @pytest.mark.parametrize("fmt", ["csv", "text"])  # JSON also prints every route's value
    def test_route_disagreement_exits_one(self, k3_file, capsys, monkeypatch, fmt):
        argv = ["invariants", str(k3_file), "-n", "3", "--format", fmt]
        assert main(argv) == 0
        expected = capsys.readouterr()
        assert expected.err == ""
        recursion = trispectral.invariants.kemeny_recursive
        monkeypatch.setattr(trispectral.invariants, "kemeny_recursive",
                            lambda *a: recursion(*a) * (1 + 1e-6))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == expected.out
        fails = captured.err.splitlines()
        assert len(fails) == 3  # depths 1-3
        assert all(line.startswith("FAIL: n=") and "kemeny routes disagree" in line
                   for line in fails)

class TestVerify:
    def test_pass_exit_zero(self, p3_file, capsys):
        assert main(["verify", str(p3_file), "--max-n", "2", "--tol", "1e-8"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("PASS")

    def test_json(self, k3_file, capsys):
        # Depths 1 and 2 (6 and 15 vertices) fit the cap, depth 3 (42) does
        # not; depth 0 is the seed's own oracle values.
        assert main(["verify", str(k3_file), "--max-n", "3", "--cap", "20",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"passed", "tolerance", "failures", "reports"}
        assert (doc["passed"], doc["tolerance"], doc["failures"]) == (True, 1e-8, [])
        reports = doc["reports"]
        assert [report["n"] for report in reports] == [0, 1, 2, 3]
        for report in reports:
            routes = report["routes"]
            assert set(routes) == {"kf_star", "kemeny", "spanning_trees"}
            assert all(("direct_oracle" in by_route) == (report["n"] < 3)
                       for by_route in routes.values())
        assert reports[2]["routes"]["spanning_trees"]["direct_oracle"] == "209952"

    def test_json_failure(self, k3_file, capsys):
        argv = ["verify", str(k3_file), "--tol", "1e-18", "--format", "json"]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False and doc["tolerance"] == 1e-18
        assert doc["failures"] and all(f.startswith("n=") for f in doc["failures"])

    def test_failure_exit_one(self, p3_file, capsys):
        assert main(["verify", str(p3_file), "--max-n", "1", "--tol", "1e-18"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_eigensolve_runs_on_the_seed_only(self, k3_file, capsys, monkeypatch):
        calls = []
        solve = trispectral.numeric.eigenvalues_sym
        for module in (trispectral.numeric, trispectral.spectra, trispectral.invariants):
            monkeypatch.setattr(module, "eigenvalues_sym",
                                lambda m: calls.append(m.order) or solve(m))
        assert main(["verify", str(k3_file), "--max-n", "4"]) == 0
        assert calls == [3]

    def test_one_dense_factorization_per_oracle_depth(self, k3_file, capsys, monkeypatch):
        # Kemeny's direct value is Kf*/2E from the resistance solve, which
        # Cholesky-checks its Schur complement once; depths 0-4 all materialize.
        calls = {"resistance_distances": 0, "cholesky": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        solve = trispectral.numeric.resistance_distances
        monkeypatch.setattr(trispectral.numeric, "resistance_distances",
                            counted("resistance_distances", solve))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        assert main(["verify", str(k3_file), "--max-n", "4"]) == 0
        assert calls == {"resistance_distances": 5, "cholesky": 5}

    def test_direct_kemeny_disagreement_fails_every_oracle_depth(self, k3_file, capsys,
                                                                 monkeypatch):
        direct = trispectral.invariants.seed_data

        def scaled(g):
            seed = direct(g)
            return dataclasses.replace(seed, kemeny=seed.kemeny * (1 + 1e-6))

        monkeypatch.setattr(trispectral.invariants, "seed_data", scaled)
        assert main(["verify", str(k3_file), "--max-n", "4"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL: ")]
        assert [line.split(":")[1] for line in fails] == [f" n={n}" for n in range(5)]
        assert all("kemeny routes disagree" in line for line in fails)


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.edges")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 0\n")
        assert main(["analyze", str(path)]) == 2

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"\xff\xfe0 1\n")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "can't decode byte 0xff" in captured.err

    def test_input_is_utf8_in_any_locale(self, tmp_path):
        # Under the C locale without UTF-8 mode, the locale's encoding is ASCII.
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(trispectral.__file__).parents[1])}
        good = tmp_path / "k3.edges"
        good.write_text("# Pétersen-free triangle\n" + K3, encoding="utf-8")
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"\xff\xfe0 1\n")

        def analyze(path):
            argv = [sys.executable, "-m", "trispectral.cli", "analyze", str(path)]
            return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)

        ok = analyze(good)
        assert (ok.returncode, ok.stderr) == (0, "")
        assert ok.stdout.startswith("n_vertices: 3\n")
        failed = analyze(bad)
        assert (failed.returncode, failed.stdout) == (2, "")
        assert failed.stderr.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        plain, marked = tmp_path / "k3.edges", tmp_path / "bom.edges"
        plain.write_text(K3, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + K3.encode())
        assert main(["analyze", str(plain)]) == 0
        expected = capsys.readouterr()
        assert main(["analyze", str(marked)]) == 0
        assert capsys.readouterr() == expected
        # A UTF-16 mark is not UTF-8: still a decode error naming the file.
        marked.write_bytes(b"\xff\xfe0 1\n")
        assert main(["analyze", str(marked)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {marked}: 'utf-8' codec can't decode byte 0xff")

    def test_non_utf8_input_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"0 1\n\xff 2\n")
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")

    def test_unwritable_output_path(self, k3_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "out.txt"
        assert main(["analyze", str(k3_file), "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out_path.exists()

    def test_disconnected_graph(self, tmp_path, capsys):
        path = tmp_path / "disc.edges"
        path.write_text("0 1\n2 3\n")
        assert main(["spectrum", str(path)]) == 2

    @pytest.mark.parametrize(
        "command,flag",
        [("analyze", "--tol"), ("triangulate", "--tol"), ("spectrum", "--tol"),
         ("invariants", "--tol"), ("analyze", "--cap"), ("spectrum", "--cap"),
         ("invariants", "--cap")],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, k3_file, capsys, command, flag):
        # --tol is read by verify only, --cap by triangulate and verify only.
        value = "1e-3" if flag == "--tol" else "100"
        with pytest.raises(SystemExit) as exc:
            main([command, str(k3_file), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestTables:
    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_tables_equal_csv_writer(self, tmp_path, capsys, name):
        # The tables are plain delimiter joins; that is csv.writer's output only
        # while no field needs quoting.  A reader-writer round trip and a fixed
        # column count per table pin that.
        path = tmp_path / "seed.edges"
        path.write_text(format_edge_list(corpus()[name]))
        tables = [
            (["analyze", "--format", "csv"], ","),
            (["triangulate", "-n", "1", "--format", "csv"], ","),
            (["spectrum", "-n", "3", "--format", "csv"], ","),
            (["invariants", "-n", "12", "--format", "csv"], ","),
            (["invariants", "-n", "12", "--format", "text"], "\t"),
            (["verify", "--max-n", "2", "--format", "csv"], ","),
        ]
        for (command, *flags), delimiter in tables:
            assert main([command, str(path), *flags]) == 0
            out = capsys.readouterr().out
            rows = list(csv.reader(io.StringIO(out), delimiter=delimiter))
            assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}, command
            buf = io.StringIO()
            csv.writer(buf, delimiter=delimiter, lineterminator="\n").writerows(rows)
            assert buf.getvalue() == out, command


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_byte_identical_runs(self, k3_file, capsys, fmt):
        assert main(["invariants", str(k3_file), "-n", "3", "--format", fmt]) == 0
        first = capsys.readouterr().out
        assert main(["invariants", str(k3_file), "-n", "3", "--format", fmt]) == 0
        assert capsys.readouterr().out == first


class TestReferenceCycles:
    def test_main_leaves_no_garbage_for_the_collector(self, k3_file, capsys):
        argv = ["verify", str(k3_file), "--max-n", "2"]
        assert main(argv) == 0  # warm-up: first-call caches and imports
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
