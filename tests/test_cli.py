import json
import tracemalloc

import numpy as np
import pytest

from lapbounds import cli
from lapbounds import verify as verify_mod
from lapbounds.cli import _traces_rows, main
from lapbounds.errors import IsolatedVertexError
from lapbounds.graph import MAX_VERTICES, from_edges
from lapbounds.matrices import (
    MAX_DENSE_ORDER,
    laplacian_entries,
    normalized_laplacian,
    signless_laplacian,
    trace_power,
    tr2_normalized_closed,
    tr2_signless_closed,
    tr4_normalized_closed,
    tr4_signless_closed,
)
from tests.conftest import FIXTURES, bit_identity_graphs

EX1 = str(FIXTURES / "example1.txt")
EX2 = str(FIXTURES / "example2.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReport:
    def test_example1_normalized_table(self, capsys):
        code, out, _ = run(capsys, "report", "--graph", EX1, "--matrix", "normalized")
        assert code == 0
        assert "1.860" in out
        assert "2.000000" in out  # E4
        for eq, val in (("E6", "1.343"), ("E7", "1.939")):
            assert eq in out and val in out

    def test_example2_signless_table(self, capsys):
        code, out, _ = run(capsys, "report", "--graph", EX2, "--matrix", "signless")
        assert code == 0
        for val in ("7.668", "9.082", "9.741", "4.582", "7.763"):
            assert val in out
        assert "E3" in out and "corrected" in out
        assert "9.34" in out  # mismatch flag in warnings

    def test_k2_both_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "k2.txt"
        p.write_text("1 2\n")
        code, out, _ = run(capsys, "report", "--graph", str(p), "--matrix", "both")
        assert code == 0
        assert out.count("2.000000") >= 4

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "report", "--graph", EX2, "--matrix", "both", "--k", "2", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"graph", "spectrum", "bounds", "warnings"}
        assert obj["graph"]["n"] == 7
        assert {"normalized", "signless"} == set(obj["spectrum"])
        # every numeric field survives re-serialization at printed precision
        assert json.loads(json.dumps(obj)) == obj
        ks = {b["k"] for b in obj["bounds"] if b["equation"] == "WS-K"}
        assert ks == {2}

    def test_csv_matches_table_numbers(self, capsys):
        _, table, _ = run(capsys, "report", "--graph", EX1, "--matrix", "normalized")
        _, csv_out, _ = run(
            capsys, "report", "--graph", EX1, "--matrix", "normalized", "--format", "csv"
        )
        csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        for row in csv_rows:
            for cell in row[-3:]:
                assert cell in table

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "report", "--graph", "/nonexistent.txt")
        assert code == 1
        assert "error" in err

    def test_isolated_vertex_normalized_exit_1(self, tmp_path, capsys):
        p = tmp_path / "iso.txt"
        p.write_text("n=3\n1 2\n")
        code, _, err = run(capsys, "report", "--graph", str(p), "--matrix", "normalized")
        assert code == 1
        assert "vertex 3" in err

    def test_isolated_vertex_signless_warns_once(self, tmp_path, capsys):
        # E1 and E2 both skip the isolated vertex; the report says so once
        p = tmp_path / "iso.txt"
        p.write_text("n=5\n1 2\n2 3\n1 3\n3 4\n")
        code, out, _ = run(capsys, "report", "--graph", str(p), "--matrix", "signless")
        assert code == 0
        assert out.count("warning: vertex 5 has degree 0; skipped") == 1

    def test_oversized_dense_oracle_exit_1(self, tmp_path, capsys, monkeypatch):
        # the parse (whose arrays and degree tuple take megabytes at this n) runs
        # before the measurement; the size guard then fires before any matrix
        # array, dense (80 GB) or sparse, is built
        p = tmp_path / "big.txt"
        p.write_text("n=100000\n1 2\n")
        g = cli._load_graph(str(p))
        monkeypatch.setattr(cli, "_load_graph", lambda path: g)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "report", "--graph", str(p), "--matrix", "signless")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert err.startswith(f"error: n = 100000 is above {MAX_DENSE_ORDER},")
        assert peak < 1 << 20

    def test_parse_error_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1 1\n")
        code, _, err = run(capsys, "report", "--graph", str(p))
        assert code == 1
        assert "self-loop" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=10000000000\n1 2\n", "n = 10000000000 is above"),
            ("1 2\n2 10000000000\n", "line 2: vertex label 10000000000 is above"),
            (f"1 2\n2 {10**30}\n", f"line 2: vertex label {10**30} is above"),  # beyond int64
        ],
    )
    @pytest.mark.parametrize("command", ["report", "traces"])
    def test_vertex_count_above_the_cap_exit_1(self, tmp_path, capsys, text, message, command):
        # refused before anything of size n is allocated
        p = tmp_path / "huge.txt"
        p.write_text(text)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, command, "--graph", str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (
            f"error: {message} {MAX_VERTICES}, the largest vertex count lapbounds "
            "accepts (MAX_VERTICES)\n"
        )
        assert peak < 1 << 20


class TestTraces:
    def test_example1(self, capsys):
        code, out, _ = run(capsys, "traces", "--graph", EX1)
        assert code == 0
        assert "7.88888888889" in out

    def test_example2_exact(self, capsys):
        code, out, _ = run(capsys, "traces", "--graph", EX2, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["tr(Q^2)"]["closed_form"] == 92
        assert obj["tr(Q^2)"]["matrix_power"] == 92

    def test_k3_258(self, tmp_path, capsys):
        p = tmp_path / "k3.txt"
        p.write_text("1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "traces", "--graph", str(p), "--format", "csv")
        assert code == 0
        row = [line for line in out.splitlines() if line.startswith("tr(Q^4)")][0]
        assert row.split(",")[1] == "258"
        assert row.split(",")[2] == "258"

    @pytest.mark.parametrize(
        "g", bit_identity_graphs()[::7], ids=lambda g: f"n{g.n}e{g.edge_count}"
    )
    def test_rows_equal_fresh_matrix_products(self, g):
        if min(g.degrees) == 0:
            with pytest.raises(IsolatedVertexError):
                _traces_rows(g)
            return
        want = []
        for kind, build, names, closed in (
            (
                "normalized",
                normalized_laplacian,
                ("tr(NL^2)", "tr(NL^4)"),
                (tr2_normalized_closed, tr4_normalized_closed),
            ),
            (
                "signless",
                signless_laplacian,
                ("tr(Q^2)", "tr(Q^4)"),
                (tr2_signless_closed, tr4_signless_closed),
            ),
        ):
            m = build(g)
            m2 = m @ m
            for name, closed_trace, p, dense in zip(
                names, closed, (2, 4), (np.trace(m2), np.trace(m2 @ m2))
            ):
                c, power = closed_trace(g), trace_power(laplacian_entries(g, kind), p)
                assert power == pytest.approx(float(dense), rel=1e-13, abs=0.0)
                want.append((name, c, power, abs(c - power) / max(abs(power), 1e-300)))
        assert _traces_rows(g) == want

    def test_rows_reject_an_isolated_vertex(self):
        with pytest.raises(IsolatedVertexError, match="vertex 3 is isolated"):
            _traces_rows(from_edges(3, [(1, 2)]))


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-min", "4", "--n-max", "8", "--trials", "10",
            "--p", "0.5", "--seed", "42",
        )
        assert code == 0
        assert "result: PASS" in out

    def test_n2_degenerate_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-min", "2", "--n-max", "2", "--trials", "5",
            "--p", "1.0", "--seed", "7", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_generation_failure_exit_1(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n-min", "8", "--n-max", "8", "--trials", "1",
            "--p", "0.0001", "--seed", "1",
        )
        assert code == 1
        assert "larger p" in err

    def test_byte_identical_reruns(self, capsys):
        args = ["verify", "--n-min", "3", "--n-max", "6", "--trials", "8",
                "--p", "0.6", "--seed", "9"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_csv_and_table_agree(self, capsys):
        args = ["verify", "--n-min", "4", "--n-max", "5", "--trials", "4",
                "--p", "0.7", "--seed", "3"]
        _, table, _ = run(capsys, *args)
        _, csv_out, _ = run(capsys, *args, "--format", "csv")
        for line in csv_out.strip().splitlines()[1:]:
            name, _, checks, failures, worst = line.split(",")
            assert name in table and worst in table

    def test_bad_range_exit_1(self, capsys):
        code, _, _ = run(capsys, "verify", "--n-min", "10", "--n-max", "4")
        assert code == 1


def test_run_verify_at_n_100_passes():
    assert verify_mod.all_passed(verify_mod.run_verify(100, 100, 1, 0.5, 1))
    with pytest.raises(ValueError, match="n_max <= 128"):
        verify_mod.run_verify(4, 129, 1, 0.5, 1)


def test_run_verify_results_all_named():
    results = verify_mod.run_verify(4, 6, 5, 0.6, 11)
    names = {r.name for r in results}
    assert "bound-validity" in names
    assert "trace-closed-vs-power" in names
    assert all(r.checks > 0 for r in results)
