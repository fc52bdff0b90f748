"""CLI behavior: canonical JSON, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from polychar import (
    FormalSum,
    apply_d_root,
    apply_r_root,
    build_root_system,
    character_demazure,
    cli,
    demazure,
    polysum,
)
from polychar import cli
from polychar.cli import run
from polychar.formal import _Codec


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _uncorrected_g2_sweep(rs, lam):
    """The G2 sweep without the (1 + e^{gamma_2}) factor on its long-root
    term.  It misses 3a^2 + 2ab points of lam = (a, b), so it drives the
    mismatch path of the commands that compare against the enumerator."""
    gammas = polysum._formula(rs)[1]
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
    monkeypatch.setattr(polysum, "polytope_sum_demazure", _uncorrected_g2_sweep)
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


@pytest.mark.parametrize("drop_points", [True, False], ids=["mismatch", "match"])
def test_bsum_both_bytes_equal_json_dumps(tmp_path, capsys, monkeypatch, drop_points):
    # on a mismatch the formula's text is written apart from the oracle's;
    # either way stdout and --out hold what json.dumps makes of the sums
    rs = build_root_system("G2")
    oracle = polysum.polytope_sum_oracle(rs, (1, 0)).sum
    formula = polysum.polytope_sum_demazure(rs, (1, 0))
    if drop_points:
        monkeypatch.setattr(polysum, "polytope_sum_demazure", _uncorrected_g2_sweep)
        formula = _uncorrected_g2_sweep(rs, (1, 0))
    expected = cli._canon(
        {
            "oracle": oracle.to_json_obj(),
            "demazure": formula.to_json_obj(),
            "diff": (formula - oracle).to_json_obj(),
            "match": formula == oracle,
        }
    )
    argv = ["bsum", "G2", "1", "0", "--method", "both"]
    code, out = _capture(capsys, argv)
    assert code == (1 if drop_points else 0)
    assert out == expected + "\n"
    target = tmp_path / "out.json"
    assert run([*argv, "--out", str(target)]) == code
    assert target.read_bytes() == out.encode()


def test_verify_clean_algebra(capsys):
    code, out = _capture(capsys, ["verify", "--algebra", "B2", "--max-label", "2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 9
    assert all(r["match"] for r in payload)


@pytest.mark.parametrize("name,max_label", [("G2", 2), ("A3", 1)])
def test_verify_prints_the_sweep_records(capsys, name, max_label):
    # verify_polytope_formula returns the JSON records the command prints
    code, out = _capture(capsys, ["verify", "--algebra", name, "--max-label", str(max_label)])
    assert code == 0
    assert polysum.verify_polytope_formula(build_root_system(name), max_label) == json.loads(out)


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


def test_verify_sweep_point_budget_boundary(capsys, monkeypatch):
    # A1 [0..3] has 1 + 2 + 3 + 4 = 10 points: allowed at a cap of 10; at 9
    # every lam passes its own cap and the sweep's running count refuses
    argv = ["verify", "--algebra", "A1", "--max-label", "3"]
    monkeypatch.setattr(polysum, "_POINT_CAP", 10)
    code, out = _capture(capsys, argv)
    assert code == 0
    assert [r["n_points"] for r in json.loads(out)] == [1, 2, 3, 4]
    monkeypatch.setattr(polysum, "_POINT_CAP", 9)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the sweep of A1 up to 3 has at least 10 points; cap is 9\n"


def test_verify_sweep_budget_counts_points_past_the_dimensions(capsys, monkeypatch):
    # A2 [0..1]^2: the dimensions 1 + 3 + 3 + 8 = 15 pass no cap below 15,
    # but the polytopes hold 1 + 3 + 3 + 7 = 14 points, so the exact count
    # accepts the sweep at a cap of 14 and refuses it at 13
    argv = ["verify", "--algebra", "A2", "--max-label", "1"]
    monkeypatch.setattr(polysum, "_POINT_CAP", 14)
    code, out = _capture(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert [r["n_points"] for r in payload] == [1, 3, 3, 7]
    assert all(r["match"] for r in payload)
    monkeypatch.setattr(polysum, "_POINT_CAP", 13)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the sweep of A2 up to 1 has at least 14 points; cap is 13\n"


def test_verify_sweep_is_refused_before_any_sum(capsys, monkeypatch):
    # the sweep's budget runs before its first comparison: at a cap of 9,
    # A1 [0..3] (10 points) is refused with neither sum built for any lam
    calls = []

    def spy(name):
        real = getattr(polysum, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("formula_against_oracle", "polytope_sum_oracle"):
        monkeypatch.setattr(polysum, name, spy(name))
    monkeypatch.setattr(polysum, "_POINT_CAP", 9)
    assert run(["verify", "--algebra", "A1", "--max-label", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the sweep of A1 up to 3 has at least 10 points; cap is 9\n"
    assert calls == []


@pytest.mark.parametrize("algebra, cap, points", [("A1", 9, 10), ("A3", 12, 15)])
def test_verify_reads_a_huge_grid_lazily(capsys, monkeypatch, algebra, cap, points):
    # labels up to 10**18: the budget reads the grid in product's order
    # without holding a row of it, and refuses within its first weights
    # (A1: 1 + 2 + 3 + 4 points; A3: 1 + 4 + 10 at (0, 0, 0..2))
    monkeypatch.setattr(polysum, "_POINT_CAP", cap)
    assert run(["verify", "--algebra", algebra, "--max-label", str(10**18)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the sweep of {algebra} up to {10**18} has at least "
                            f"{points} points; cap is {cap}\n")


@pytest.mark.parametrize(
    "argv", [["char", "A2", "1", "1"], ["bsum", "A2", "1", "1", "--method", "demazure"]]
)
def test_operator_routes_point_cap_boundary(capsys, monkeypatch, argv):
    # A2 (1, 1): dimension 8, 7 lattice points (the 6 roots and 0)
    def unreachable(*args):
        raise AssertionError("unreachable")

    # a dimension within the cap passes without the walk
    monkeypatch.setattr(polysum, "_POINT_CAP", 8)
    monkeypatch.setattr(polysum, "_walk_below", unreachable)
    assert _capture(capsys, argv)[0] == 0
    monkeypatch.undo()
    # past it, the walk's exact count decides: 7 points pass a cap of 7
    monkeypatch.setattr(polysum, "_POINT_CAP", 7)
    code, out = _capture(capsys, argv)
    assert code == 0
    assert len(json.loads(out)) == 7
    # and a cap of 6 refuses before any operator runs
    monkeypatch.setattr(polysum, "_POINT_CAP", 6)
    monkeypatch.setattr(demazure, "_demazure", unreachable)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the polytope of [1, 1] has at least 7 points; cap is 6\n"


def test_char_rank_4_point_cap_boundary(capsys, monkeypatch):
    # char builds no Weyl table, so rank 4 meets only the point cap.  A4
    # (1, 0, 0, 1): dimension 24, 21 lattice points (the 20 roots and 0)
    def unreachable(*args):
        raise AssertionError("unreachable")

    argv = ["char", "A4", "1", "0", "0", "1"]
    monkeypatch.setattr(polysum, "_POINT_CAP", 21)
    code, out = _capture(capsys, argv)
    assert code == 0
    rs = build_root_system("A4")
    char = FormalSum(4, [(tuple(e["w"]), e["c"]) for e in json.loads(out)])
    assert char == polysum.character_freudenthal(rs, (1, 0, 0, 1))
    monkeypatch.setattr(polysum, "_POINT_CAP", 20)
    monkeypatch.setattr(demazure, "_demazure", unreachable)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the polytope of [1, 0, 0, 1] has at least 21 points; cap is 20\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bsum", "B3", "50", "50", "50", "--method", "demazure"],
         "no operator polytope-sum formula for B3"),
    ],
    ids=["bsum-B3"],
)
def test_operator_routes_refuse_structure_before_the_size_guard(capsys, monkeypatch, argv,
                                                                  message):
    # the dimension passes the cap, but neither the dimension nor the walk
    # is reached: the algebra is refused first
    def unreachable(*args):
        raise AssertionError("unreachable")

    monkeypatch.setattr(polysum, "weyl_dimension", unreachable)
    monkeypatch.setattr(polysum, "_walk_below", unreachable)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_eval_sigma_count_cap_boundary(capsys, monkeypatch):
    argv = ["eval", "--algebra", "A2", "--lam", "1", "1", "--sigma-count", "3"]
    monkeypatch.setattr(polysum, "_SIGMA_CAP", 3)
    code, out = _capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["sigma_count"] == 3

    def unreachable(rs, count, seed):
        raise AssertionError("points were sampled past the sigma-count cap")

    monkeypatch.setattr(polysum, "_SIGMA_CAP", 2)
    monkeypatch.setattr(polysum, "sample_generic_sigmas", unreachable)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sigma_count must be at most 2, got 3\n"


def test_bsum_both_without_formula_exits_2_before_enumerating(capsys, monkeypatch):
    def unreachable(rs, lam):
        raise AssertionError("the enumerator ran for an algebra without a formula")

    monkeypatch.setattr(polysum, "polytope_sum_oracle", unreachable)
    assert run(["bsum", "B3", "3", "3", "3", "--method", "both"]) == 2
    assert "no operator polytope-sum formula for B3" in capsys.readouterr().err


def test_bsum_both_past_the_point_cap_exits_2_before_the_formula(capsys, monkeypatch):
    # the oracle's lower bound refuses first; the formula would build a sum
    # of 10**8 + 1 terms
    def unreachable(rs, lam):
        raise AssertionError("the formula ran past the point cap")

    monkeypatch.setattr(polysum, "polytope_sum_demazure", unreachable)
    assert run(["bsum", "A1", "100000000", "--method", "both"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the polytope of [100000000] has at least 100000001 points; "
        "cap is 1000000\n"
    )


def test_eval_rank_4_exits_2_before_enumerating(capsys, monkeypatch):
    def unreachable(rs, lam):
        raise AssertionError("the enumerator ran past the group cap")

    monkeypatch.setattr(polysum, "polytope_sum_oracle", unreachable)
    assert run(["eval", "--algebra", "A4", "--lam", "1", "0", "0", "0"]) == 2
    assert "capped at rank 3" in capsys.readouterr().err


def test_eval_failed_cross_check_exits_1_without_traceback(capsys):
    # at this seed one sampled point pairs to 0.05 with a root, and the two
    # float values of the character, exactly 1, differ by about 7e-9: a
    # failed tolerance check, which exits 1 and names the request
    code = run(["eval", "--algebra", "C3", "--lam", "0", "0", "0", "--sigma-count", "20",
                "--seed", "10"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: numeric checks of C3 lambda [0, 0, 0] seed 10 failed: the two character "
        "evaluations disagree beyond 1e-9; sigma is ill-conditioned\n"
    )


def test_eval_needs_both_flags(capsys):
    code = run(["eval", "--algebra", "A2"])
    assert code == 2


def test_expand_exact(capsys):
    code, out = _capture(capsys, ["expand", "A2", "1", "1"])
    assert code == 0
    assert out == '[{"c":1,"w":[0,0]},{"c":1,"w":[1,1]}]\n'


def test_expand_point_cap_boundary(capsys, monkeypatch):
    # A4 (1, 0, 0, 1): the 20 roots and 0.  The lower bound (20 vertices)
    # passes at a cap of 20; the exact count during the walk refuses
    monkeypatch.setattr(polysum, "_POINT_CAP", 21)
    code, out = _capture(capsys, ["expand", "A4", "1", "0", "0", "1"])
    assert code == 0
    assert out == '[{"c":3,"w":[0,0,0,0]},{"c":1,"w":[1,0,0,1]}]\n'
    monkeypatch.setattr(polysum, "_POINT_CAP", 20)
    assert run(["expand", "A4", "1", "0", "0", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the polytope of [1, 0, 0, 1] has at least 21 points; cap is 20\n"
    )
    # D4 (1, 1, 1, 1) peels, sized by Freudenthal's walk alone: 601 points,
    # |W| = 192 vertices.  From a cap of 192 the walk's running count
    # decides (192 + 32 at its second weight); below it the lower bound does
    argv = ["expand", "D4", "1", "1", "1", "1"]
    monkeypatch.setattr(polysum, "_POINT_CAP", 601)
    code, out = _capture(capsys, argv)
    assert code == 0
    assert len(json.loads(out)) == 14
    for cap, points in [(600, 601), (192, 224), (191, 192)]:
        monkeypatch.setattr(polysum, "_POINT_CAP", cap)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the polytope of [1, 1, 1, 1] has at least {points} points; cap is {cap}\n"
        )


def test_expand_d4_has_a_negative_coefficient(capsys):
    # the polytope multiplicities are not all nonnegative: D4 rho gives -4
    # at omega_2 = theta, and the signed sum of polytope sums is still the
    # character (dimension 4^6)
    code, out = _capture(capsys, ["expand", "D4", "1", "1", "1", "1"])
    assert code == 0
    coeffs = {tuple(t["w"]): t["c"] for t in json.loads(out)}
    assert len(coeffs) == 14
    assert coeffs[(0, 1, 0, 0)] == -4
    rs = build_root_system("D4")
    total = FormalSum(4)
    for mu, c in coeffs.items():
        total = total + polysum.polytope_sum_oracle(rs, mu).sum.scale(c)
    assert total == polysum.character_freudenthal(rs, (1, 1, 1, 1))
    assert total.coefficient_sum() == 4096


def test_vertices_sorted(capsys):
    code, out = _capture(capsys, ["vertices", "A2", "1", "0"])
    assert code == 0
    assert json.loads(out) == [[-1, 1], [0, -1], [1, 0]]


def test_vertices_orbit_cap_boundary(capsys, monkeypatch):
    # G2 (1, 1) has a 12-point orbit: allowed at a cap of 12, refused at 11
    monkeypatch.setattr(polysum, "_POINT_CAP", 12)
    code, out = _capture(capsys, ["vertices", "G2", "1", "1"])
    assert code == 0
    assert len(json.loads(out)) == 12
    monkeypatch.setattr(polysum, "_POINT_CAP", 11)
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


_GOLDEN_ARGVS = [case["argv"] for case in json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))]


def _no_parser():
    raise AssertionError("a plain command line built the argparse parser")


@pytest.mark.parametrize(
    "argv",
    _GOLDEN_ARGVS + [s.split() for s in (
        "char -- A2 1 1", "bsum A2 1 1 -h", "char A2 1 1 --bogus",
        # abbreviated options, as each subcommand's parser reads them
        "bsum A2 1 1 --meth both", "verify --alg A2 --max 2",
        "eval --lam 1 1 --algebra A2 --sig 2",
        "bsum A2 1 1 --method=both", "char A2 -1 0", "char A2", "chr A2 1 1", "", "-h",
        "--out x char A2 1 1",
    )],
    ids=lambda argv: " ".join(argv) or "(no arguments)",
)
def test_parse_shortcut_matches_the_top_level_parser(capsys, monkeypatch, argv):
    # run reads a plain command line off the declaration (_parse_plain) and
    # hands any other to the top-level parser; the reference sends every
    # line to that parser, and a plain line must not build it at all
    monkeypatch.setenv("COLUMNS", "80")
    want = (run(list(argv)), *capsys.readouterr())
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_plain", lambda argv: None)
        assert (run(list(argv)), *capsys.readouterr()) == want
    if cli._parse_plain(list(argv)) is not None:
        monkeypatch.setattr(cli, "_build_parser", _no_parser)
        assert (run(list(argv)), *capsys.readouterr()) == want


# the tokens the table-parse test draws command lines from: those every
# subcommand shares, then each one's own
_COMMON_TOKENS = ("A2", "0", "1", "2", "-1", "x", "", "1.5", "-h", "--help", "--", "-",
                  "--table", "--tab", "--t", "--table=1", "--out", "--ou", "o.json",
                  "--out=o.json", "--bogus", "-x")
_OWN_TOKENS = {
    "char": (),
    "bsum": ("--method", "--meth", "--m", "--method=both", "oracle", "demazure", "both",
             "sideways"),
    "verify": ("--algebra", "--alg", "--algebra=B2", "--max-label", "--max", "--max-label=2"),
    "eval": ("--algebra", "--a", "--lam", "--la", "--lam=1", "--sigma-count", "--sigma", "--s",
             "--seed", "--se", "--seed=3"),
    "expand": (),
    "vertices": (),
}


def _command_line(rng, arguments, tokens):
    """A random command line for a subcommand that declares ``arguments``
    (flag, add_argument options): half of them in the plain shape
    (positionals, then options with values, an option sometimes twice or
    abbreviated), and of those half changed at one or two places by a pool
    token; the rest drawn from the pool alone."""
    if rng.random() < 0.5:
        return [rng.choice(tokens) for _ in range(rng.randrange(8))]
    argv = []
    for flag, spec in arguments:
        if spec.get("nargs") == "+" and not flag.startswith("-"):
            argv += [str(rng.randrange(-1, 4)) for _ in range(rng.randrange(1, 4))]
        elif not flag.startswith("-"):
            argv.append(rng.choice(("A2", "B3")))
    options = [(flag, spec) for flag, spec in arguments if flag.startswith("-")]
    for flag, spec in rng.sample(options * 2, rng.randrange(len(options) + 1)):
        argv.append(flag if rng.random() < 0.9 else flag[:rng.randrange(3, len(flag))])
        if "choices" in spec:
            argv.append(rng.choice(spec["choices"]))
        elif spec.get("nargs") == "+":
            argv += [str(rng.randrange(3)) for _ in range(rng.randrange(1, 3))]
        elif "action" not in spec:
            argv.append(rng.choice(("3", "x") if "type" in spec else ("A2", "o.json")))
    for _ in range(rng.choice((0, 0, 1, 2))):
        k = rng.randrange(len(argv) + 1)
        argv[k:k + rng.randrange(2)] = [rng.choice(tokens)]
    return argv


def test_table_parse_is_argparses_or_declines():
    # over random command lines of every subcommand, the table parse gives
    # the top-level parse_args's values, or None; it accepts no option that
    # is not spelled in full
    parser = cli._build_parser()
    rng = random.Random(1)
    for name, (_help, _handler, own) in cli._COMMANDS.items():
        arguments = (*own, *cli._COMMON)
        tokens = _COMMON_TOKENS + _OWN_TOKENS[name]
        full = {flag for flag, _spec in arguments if flag.startswith("-")}
        taken = declined = 0
        for _ in range(1500):
            argv = [name, *_command_line(rng, arguments, tokens)]
            got = cli._parse_plain(list(argv))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    want = vars(parser.parse_args(list(argv)))
                except SystemExit:
                    want = None
            if got is None:
                declined += want is not None
                continue
            taken += 1
            assert vars(got) == want, argv
            assert all(token in full for token in argv if token.startswith("-")), argv
        # both paths are exercised: the table takes some, argparse the rest
        assert taken > 150 and declined > 100, (name, taken, declined)


def _unreachable(*args):
    raise AssertionError("a sum was written through its tuple form")


@pytest.mark.parametrize("argv,reference,nbytes", [
    ("char C3 2 2 3", lambda: character_demazure(build_root_system("C3"), (2, 2, 3)), 1),
    ("bsum G2 6 4 --method both",
     lambda: polysum.polytope_sum_oracle(build_root_system("G2"), (6, 4)).sum, 1),
    ("char A1 40000", lambda: character_demazure(build_root_system("A1"), (40000,)), 4),
])
def test_packed_sums_are_written_without_tuples(capsys, monkeypatch, argv, reference, nbytes):
    s = reference()
    assert s._codec.nbytes == nbytes
    obj = s.to_json_obj()
    if "both" in argv:
        obj = {"demazure": obj, "diff": [], "match": True, "oracle": obj}
    monkeypatch.setattr(FormalSum, "_canonical", _unreachable)
    monkeypatch.setattr(_Codec, "unpack_all", _unreachable)
    code, out = _capture(capsys, argv.split())
    assert code == 0
    assert out == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["char", "A1", "2"],
        ["bsum", "A2", "1", "0", "--method", "both"],
        ["verify", "--algebra", "A1", "--max-label", "2"],
        ["eval", "--algebra", "A1", "--lam", "2", "--sigma-count", "2"],
        ["expand", "A2", "1", "1"],
        ["vertices", "A2", "1", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_flag(tmp_path, capsys, argv):
    """--out writes exactly the stdout JSON, with or without --table."""
    code, stdout = _capture(capsys, argv)
    assert code == 0
    target = tmp_path / "out.json"
    code, out = _capture(capsys, [*argv, "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_bytes() == stdout.encode()
    target.unlink()
    code, table = _capture(capsys, [*argv, "--out", str(target), "--table"])
    assert code == 0
    assert target.read_bytes() == stdout.encode()
    # the table itself, the same from run to run
    assert table != stdout
    assert table == _capture(capsys, [*argv, "--table"])[1]


@pytest.mark.parametrize("name", ["{tmp}", "{tmp}/missing/char.json", ""],
                         ids=["directory", "no-parent", "empty"])
def test_out_unwritable_exits_2(tmp_path, capsys, name):
    target = name.format(tmp=tmp_path)
    assert run(["char", "A1", "2", "--out", target]) == 2
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


def test_eval_sum_overflow_exits_2(capsys):
    # no single exponential overflows here, but the lattice sum's total does:
    # bad input (exit 2), not a failed cross-check of inf against inf
    argv = ["eval", "--algebra", "A1", "--lam", "1344", "--sigma-count", "3", "--seed", "2"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numeric checks of A1 lambda [1344] overflow floats (")
    # and no NaN or Infinity is ever printed as if it were JSON
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            cli._canon({"x": value})


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
