"""CLI contract: commands, formats, exit codes, determinism."""

import json

import pytest

from trispectral.cli import CliConfig, main

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
    def test_validation(self):
        with pytest.raises(ValueError):
            CliConfig(command="spectrum", input_path=None, tolerance=0.0)
        with pytest.raises(ValueError):
            CliConfig(command="spectrum", input_path=None, n=-1)
        with pytest.raises(ValueError):
            CliConfig(command="spectrum", input_path=None, explicit_cap=1)


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

    def test_cap_exceeded_exit_code(self, k3_file, capsys):
        assert main(["triangulate", str(k3_file), "-n", "6", "--cap", "100"]) == 3
        err = capsys.readouterr().err
        assert "hint" in err

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

    def test_symbolic_depth_beyond_any_cap(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "40"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 40

    def test_expansion_cap_exit_code(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "40", "--expand"]) == 3

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_classes_below_smallest_normal_exit_two(self, k3_file, capsys, fmt):
        assert main(["spectrum", str(k3_file), "-n", "1100", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "double-precision range" in captured.err
        assert "below the smallest normal double" in captured.err

    def test_classes_at_smallest_normal_depth(self, k3_file, capsys):
        assert main(["spectrum", str(k3_file), "-n", "1022", "--format", "text"]) == 0
        classes = capsys.readouterr().out.split("classes (value x multiplicity):\n")[1]
        values = [float(line.split(" x ")[0]) for line in classes.splitlines()]
        assert values[0] == 0.0
        assert values[1] == 1.5 * 2.0**-1022  # the seed class 3/2, halved 1022 times
        assert all(v > 0.0 for v in values[1:])

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


class TestVerify:
    def test_pass_exit_zero(self, p3_file, capsys):
        assert main(["verify", str(p3_file), "--max-n", "2", "--tol", "1e-8"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("PASS")

    def test_failure_exit_one(self, p3_file, capsys):
        assert main(["verify", str(p3_file), "--max-n", "1", "--tol", "1e-18"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.edges")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 0\n")
        assert main(["analyze", str(path)]) == 2

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


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_byte_identical_runs(self, k3_file, capsys, fmt):
        assert main(["invariants", str(k3_file), "-n", "3", "--format", fmt]) == 0
        first = capsys.readouterr().out
        assert main(["invariants", str(k3_file), "-n", "3", "--format", fmt]) == 0
        assert capsys.readouterr().out == first
