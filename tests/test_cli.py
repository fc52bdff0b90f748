"""CLI behavior: canonical JSON, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polychar import FormalSum, apply_d_root, apply_r_root, cli, gamma_sequence, polysum
from polychar.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _uncorrected_g2_sweep(rs, lam):
    """The G2 sweep without the (1 + e^{gamma_2}) factor on its long-root
    term.  It misses 3a^2 + 2ab points of lam = (a, b), so it drives the
    mismatch path of the commands that compare against the enumerator."""
    gammas = gamma_sequence(rs)
    total = staged = FormalSum.exp(tuple(lam))
    for root in gammas[:-1]:
        total = total + apply_d_root(rs, root, staged)
        staged = apply_r_root(rs, root, staged)
    return total + apply_d_root(rs, gammas[-1], total)


def test_char_trivial_exact_bytes(capsys):
    code, out = _capture(capsys, ["char", "A2", "0", "0"])
    assert code == 0
    assert out == '[{"c":1,"w":[0,0]}]\n'


def test_char_adjoint(capsys):
    code, out = _capture(capsys, ["char", "A2", "1", "1"])
    assert code == 0
    payload = json.loads(out)
    assert sum(e["c"] for e in payload) == 8


def test_bsum_a1(capsys):
    code, out = _capture(capsys, ["bsum", "A1", "4"])
    assert code == 0
    payload = json.loads(out)
    assert [e["w"] for e in payload] == [[-4], [-2], [0], [2], [4]]
    assert all(e["c"] == 1 for e in payload)


def test_bsum_both_match(capsys):
    code, out = _capture(capsys, ["bsum", "B2", "2", "1", "--method", "both"])
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["diff"] == []
    assert payload["oracle"] == payload["demazure"]


def test_bsum_both_mismatch_exits_1(capsys, monkeypatch):
    # a formula that drops points surfaces as a nonzero exit with the diff
    monkeypatch.setattr(cli, "polytope_sum_demazure", _uncorrected_g2_sweep)
    code, out = _capture(capsys, ["bsum", "G2", "1", "0", "--method", "both"])
    assert code == 1
    payload = json.loads(out)
    assert payload["match"] is False
    assert payload["diff"] == [
        {"c": -1, "w": [-1, 2]}, {"c": -1, "w": [0, 0]}, {"c": -1, "w": [1, -2]},
    ]
    monkeypatch.undo()
    code, out = _capture(capsys, ["bsum", "G2", "1", "0", "--method", "both"])
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["diff"] == []


def test_verify_clean_algebra(capsys):
    code, out = _capture(capsys, ["verify", "--algebra", "B2", "--max-label", "2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 9
    assert all(r["match"] for r in payload)


def test_verify_g2_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(polysum, "polytope_sum_demazure", _uncorrected_g2_sweep)
    code, out = _capture(capsys, ["verify", "--algebra", "G2", "--max-label", "1"])
    assert code == 1
    payload = json.loads(out)
    by_lam = {tuple(r["lambda"]): r["match"] for r in payload}
    assert by_lam == {(0, 0): True, (0, 1): True, (1, 0): False, (1, 1): False}
    monkeypatch.undo()
    code, out = _capture(capsys, ["verify", "--algebra", "G2", "--max-label", "1"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 4
    assert all(r["match"] for r in payload)


def test_eval_single_case(capsys):
    code, out = _capture(
        capsys, ["eval", "--algebra", "A2", "--lam", "1", "1", "--sigma-count", "5"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["brion_max_rel_err"] < 1e-9


@pytest.mark.parametrize("count", ["0", "-3"])
def test_eval_sigma_count_below_one_exits_2(capsys, count):
    argv = ["eval", "--algebra", "A2", "--lam", "1", "1", "--sigma-count", count]
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_bsum_both_without_formula_exits_2_before_enumerating(capsys, monkeypatch):
    def unreachable(rs, lam):
        raise AssertionError("the enumerator ran for an algebra without a formula")

    monkeypatch.setattr(cli, "polytope_sum_oracle", unreachable)
    assert run(["bsum", "B3", "3", "3", "3", "--method", "both"]) == 2
    assert "no operator polytope-sum formula for B3" in capsys.readouterr().err


def test_eval_rank_4_exits_2_before_enumerating(capsys, monkeypatch):
    def unreachable(rs, lam):
        raise AssertionError("the enumerator ran past the group cap")

    monkeypatch.setattr(polysum, "polytope_sum_oracle", unreachable)
    assert run(["eval", "--algebra", "A4", "--lam", "1", "0", "0", "0"]) == 2
    assert "capped at rank 3" in capsys.readouterr().err


def test_eval_needs_both_flags(capsys):
    code = run(["eval", "--algebra", "A2"])
    assert code == 2


def test_expand_exact(capsys):
    code, out = _capture(capsys, ["expand", "A2", "1", "1"])
    assert code == 0
    assert out == '[{"c":1,"w":[0,0]},{"c":1,"w":[1,1]}]\n'


def test_vertices_sorted(capsys):
    code, out = _capture(capsys, ["vertices", "A2", "1", "0"])
    assert code == 0
    assert json.loads(out) == [[-1, 1], [0, -1], [1, 0]]


def test_vertices_orbit_cap_boundary(capsys, monkeypatch):
    # G2 (1, 1) has a 12-point orbit: allowed at a cap of 12, refused at 11
    monkeypatch.setattr(cli, "_POINT_CAP", 12)
    code, out = _capture(capsys, ["vertices", "G2", "1", "1"])
    assert code == 0
    assert len(json.loads(out)) == 12
    monkeypatch.setattr(cli, "_POINT_CAP", 11)
    assert run(["vertices", "G2", "1", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the orbit of [1, 1] has 12 points; cap is 11\n"


def test_deterministic_output(capsys):
    for argv in (
        ["char", "G2", "2", "1"],
        ["bsum", "B2", "2", "1", "--method", "both"],
        ["verify", "--algebra", "A2", "--max-label", "2"],
        ["eval", "--algebra", "A2", "--lam", "1", "1", "--sigma-count", "3"],
        ["expand", "B2", "2", "2"],
        ["vertices", "G2", "1", "1"],
    ):
        _, first = _capture(capsys, argv)
        _, second = _capture(capsys, argv)
        assert first == second, argv


def test_usage_error_between_identical_runs(capsys):
    # the parser is built once per process; a usage error must not change it
    argv = ["bsum", "B2", "2", "1", "--method", "both"]
    code_1, first = _capture(capsys, argv)
    assert run(["bsum", "B2", "2", "1", "--method", "sideways"]) == 2
    capsys.readouterr()
    code_2, second = _capture(capsys, argv)
    assert code_1 == code_2 == 0
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [["char", "A2", "1"], ["char", "E6", "1", "1"], ["bsum", "A2", "1", "1", "1"],
     ["vertices", "A2", "-1", "0"], ["expand", "A2", "1"], ["bsum", "A2", "-1", "0"],
     ["vertices", "A2", "1"], ["eval", "--algebra", "A2", "--lam", "1"],
     ["verify", "--algebra", "B3"],
     # 10,321,920 orbit points: refused before the orbit is built
     ["vertices", "B8", "1", "1", "1", "1", "1", "1", "1", "1"]],
)
def test_usage_errors_exit_2(capsys, argv):
    assert run(argv) == 2


def test_unknown_subcommand_exit_2(capsys):
    assert run(["frobnicate"]) == 2


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "char.json"
    code, out = _capture(capsys, ["char", "A1", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == [
        {"c": 1, "w": [-2]}, {"c": 1, "w": [0]}, {"c": 1, "w": [2]},
    ]


@pytest.mark.parametrize("name", ["", "missing/char.json"], ids=["directory", "no-parent"])
def test_out_unwritable_exits_2(tmp_path, capsys, name):
    target = tmp_path / name
    assert run(["char", "A1", "2", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in captured.err


def test_table_mode(capsys):
    code, out = _capture(capsys, ["bsum", "A1", "2", "--table"])
    assert code == 0
    assert "weight -> coeff" in out
    assert "[0] -> 1" in out


def _child_pythonpath() -> str:
    # pytest's pythonpath setting reaches this process only, not a child
    src = str(Path(__file__).resolve().parents[1] / "src")
    return os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polychar", "char", "A2", "0", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _child_pythonpath()},
    )
    assert proc.returncode == 0
    assert proc.stdout == '[{"c":1,"w":[0,0]}]\n'


def test_eval_float_overflow_exits_2():
    # e^{<mu, sigma>} leaves the float range at these labels; that is bad
    # input (exit 2), not a failed check (exit 1).  A child process shows
    # what a user sees, traceback included.
    proc = subprocess.run(
        [sys.executable, "-m", "polychar", "eval", "--algebra", "A1", "--lam", "2000",
         "--sigma-count", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _child_pythonpath()},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "A1 lambda [2000]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_closed_pipe_exits_141_quietly():
    # `char B3 4 4 4` prints about 147 kB, more than a 64 kB pipe buffer can
    # take, so a reader that stops after 10 bytes makes a later write fail.
    proc = subprocess.Popen(
        [sys.executable, "-m", "polychar", "char", "B3", "4", "4", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": _child_pythonpath()},
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
