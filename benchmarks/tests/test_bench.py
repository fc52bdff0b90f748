"""Tests of the benchmark itself: request generation, span arithmetic,
metric coverage and failure accounting.

    python3 -m pytest benchmarks/tests -q
"""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run as bench_run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    assert len(first) >= 100


def test_heavy_slots_ignore_the_seed():
    def heavy(seed):
        return sorted(
            argv for argv in workloads.generate("char-expand", seed)
            if argv[1] == "G2" and argv[0] == "char" and sum(map(int, argv[2:])) >= 10
        )

    assert len(heavy(1)) == 5
    assert heavy(1) == heavy(2) == heavy(3)


def test_timings_are_scaled_by_the_reference(lib, monkeypatch):
    # A reference that takes about 1 ms makes the host look about three
    # times slower than the baseline machine.
    monkeypatch.setattr(bench_run, "reference", lambda: time.sleep(0.001))
    requests = [("char", "A1", "2"), ("char", "A2", "1", "0")]
    metrics, ledger, passes, scale = bench_run.measure(lib, requests, seconds=0)
    assert passes == bench_run.MIN_PASSES
    assert ledger.attempted == passes * len(requests)
    assert 0.5 * bench_run.REFERENCE_S / 0.001 < scale <= bench_run.REFERENCE_S / 0.001
    assert list(metrics) == [name for name, _unit in bench_run.END_TO_END]


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _u in bench_run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        tracing.PER_LAYER
    )


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and c
    # [9, 12], which runs past its parent; a has one child [2, 3].
    spans = [
        [0, None, "root", 0.0, 10.0, 0],
        [1, 0, "a", 1.0, 4.0, 0],
        [2, 0, "b", 3.0, 6.0, 0],
        [3, 0, "c", 9.0, 12.0, 0],
        [4, 1, "leaf", 2.0, 3.0, 0],
    ]
    own = tracing.self_times(spans)
    assert own == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 3.0, 4: 1.0}
    stats = tracing.span_stats(spans)
    assert stats["root"] == [1, 10.0, 4.0]
    assert stats["a"] == [1, 3.0, 2.0]


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.counter("hot", lambda x: x + 1)
    child = tracer.span("child", lambda x: [inner(x)], extra=("weights", lambda _a, r: len(r)))
    parent = tracer.span("parent", lambda x: child(x) + child(x))
    assert parent(1) == [2, 2]
    names = [(s[2], s[1]) for s in tracer.spans]
    assert names == [("parent", None), ("child", 0), ("child", 0)]
    assert tracer.counts["hot.calls"] == 2
    assert tracer.counts["child.weights"] == 2


def test_install_rebinds_every_binding_and_restores(lib):
    import polychar.cli
    import polychar.polysum
    import polychar.weyl

    originals = (polychar.cli.polytope_sum_oracle, polychar.polysum.orbit, polychar.weyl.orbit)
    undo = tracing.install(tracing.Tracer())
    try:
        assert polychar.cli.polytope_sum_oracle is polychar.polysum.polytope_sum_oracle
        assert polychar.cli.polytope_sum_oracle is not originals[0]
        assert polychar.polysum.orbit is polychar.weyl.orbit is not originals[1]
    finally:
        tracing.restore(undo)
    assert (polychar.cli.polytope_sum_oracle, polychar.polysum.orbit, polychar.weyl.orbit) == originals


def test_install_fails_loudly_on_a_missing_name(lib, monkeypatch):
    import polychar.polysum

    original = polychar.polysum.polytope_sum_oracle
    monkeypatch.setattr(tracing, "SPANS", (
        ("polysum", "polytope_sum_oracle", "polysum.oracle", None),
        ("polysum", "no_such_function", "polysum.missing", None),
    ))
    with pytest.raises(AttributeError):
        tracing.install(tracing.Tracer())
    assert polychar.polysum.polytope_sum_oracle is original
    monkeypatch.setattr(tracing, "SPANS", ())
    monkeypatch.setattr(tracing, "COUNTERS", (("rootsys", "RootSystem.no_such_method", "x"),))
    with pytest.raises(AttributeError):
        tracing.install(tracing.Tracer())


# Per-layer metrics each workload must move: a layer renamed away from the
# tracer would read 0 here.
EXERCISED = {
    "verify-sweep": (
        "polysum.oracle.calls", "polysum.oracle.self_s", "polysum.oracle.points",
        "polysum.member.calls", "polysum.oracle.yield", "polysum.formula.calls",
        "polysum.verify.self_s", "demazure.op.calls", "demazure.op.terms_out",
        "formal.add.calls", "rootsys.coroot_labels.calls", "weyl.orbit.points",
        "weyl.dominant_representative.calls", "rootsys.root_coords_of_weight.calls",
    ),
    "char-expand": (
        "polysum.freudenthal.calls", "polysum.freudenthal.self_s",
        "polysum.dominant_below.calls", "polysum.dominant_below.weights",
        "polysum.expansion.calls", "demazure.character_demazure.calls",
        "demazure.op.calls", "demazure.op.peak_terms", "rootsys.inner.calls",
        "weyl.weyl_group.calls", "weyl.orbit.calls", "weyl.dominant_representative.calls",
    ),
    "numeric-eval": (
        "polysum.brion_eval.calls", "polysum.brion_eval.self_s",
        "polysum.weyl_char_eval.calls", "polysum.weyl_char_eval.self_s",
        "polysum.sample_sigmas.self_s", "polysum.numeric_check.self_s",
        "formal.evaluate.calls", "formal.evaluate.terms", "weyl.element_apply.calls",
        "rootsys.inner_float.calls", "weyl.weyl_group.hit_ratio",
    ),
}


def _cheapest_per_kind(requests) -> list:
    """One cheap request for each (subcommand, algebra): the smallest sum of
    numeric arguments, which for ``eval`` includes its sampling seed."""
    picked = {}
    for argv in sorted(requests, key=lambda a: sum(int(t) for t in a if t.isdigit())):
        algebra = argv[argv.index("--algebra") + 1] if "--algebra" in argv else argv[1]
        picked.setdefault((argv[0], algebra), argv)
    return list(picked.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_metric_reported(lib, workload):
    requests = _cheapest_per_kind(workloads.generate(workload, 1))
    metrics, ledger, tracers = bench_run.measure_traced(lib, requests, seconds=0)
    assert list(metrics) == [name for name, _u, _b in tracing.PER_LAYER]
    assert metrics["cli.run.calls"] == len(requests)
    assert metrics["rootsys.build_root_system.calls"] == len(requests)
    assert metrics["cli.stdout_bytes"] > 0
    assert [name for name in EXERCISED[workload] if not metrics[name] > 0] == []
    assert ledger.failed(ledger.check(lib)) == 0
    assert len(tracers) == 1


def test_raise_and_unexpected_exit_code_are_failures(lib):
    real = lib.cli.run

    def flaky(argv):
        if argv[1] == "A2":
            raise RuntimeError("boom")
        code = real(argv)
        return 3 if argv[1] == "B2" else code

    fake = SimpleNamespace(**vars(lib))
    fake.cli = SimpleNamespace(run=flaky)
    requests = [("char", "A1", "2"), ("char", "A2", "1", "0"), ("char", "B2", "1", "0")]
    ledger = bench_run.Ledger(requests)
    for _ in range(2):
        ledger.record(bench_run.run_pass(fake, requests)[2])
    bad = ledger.check(fake)  # a third, untimed pass
    assert sorted(bad) == [1, 2]
    assert "RuntimeError" in bad[1] and "exit code 3" in bad[2]
    assert ledger.attempted == 9
    assert ledger.failed(bad) == 6


def test_output_drift_between_passes_is_a_failure(lib):
    calls = []

    def drifting(argv):
        calls.append(argv)
        print("[]" if len(calls) == 1 else '[{"c":1,"w":[0]}]')
        return 0

    fake = SimpleNamespace(**vars(lib))
    fake.cli = SimpleNamespace(run=drifting)
    requests = [("char", "A1", "0")]
    ledger = bench_run.Ledger(requests)
    for _ in range(2):
        ledger.record(bench_run.run_pass(fake, requests)[2])
    bad = ledger.check(fake)  # the drifted output itself is a right character
    assert bad == {}
    assert ledger.drifted() == 2
    assert ledger.failed(bad) == 2


def test_canonical_drops_verify_millis():
    argv = ("verify", "--algebra", "A1", "--max-label", "0")
    a = '[{"algebra":"A1","millis":1.5,"match":true}]'
    b = '[{"algebra":"A1","millis":2.5,"match":true}]'
    assert checks.canonical(argv, a) == checks.canonical(argv, b)
    assert checks.canonical(("char", "A1", "0"), a) == a


def _output(lib, argv):
    return bench_run.execute(lib.cli.run, argv)[1:3]


def test_known_g2_red_is_expected_but_other_mismatches_fail(lib):
    argv = ("bsum", "G2", "1", "0", "--method", "both")
    code, out = _output(lib, argv)
    assert code == 1
    assert checks.check(lib, argv, code, out) is None
    assert checks.check(lib, argv, 0, out) == "exit code 0, expected 1"
    payload = json.loads(out)
    payload["diff"][0]["c"] = -2
    assert checks.check(lib, argv, code, json.dumps(payload)) == "diff is not formula minus oracle"
    argv = ("bsum", "A2", "1", "1", "--method", "both")
    payload = json.loads(_output(lib, argv)[1])
    payload["demazure"] = payload["demazure"][1:]
    payload["diff"] = [{"c": -1, "w": payload["oracle"][0]["w"]}]
    payload["match"] = False
    assert checks.check(lib, argv, 1, json.dumps(payload)).startswith("unexpected mismatch")


@pytest.mark.parametrize(
    "argv",
    [
        ("char", "B2", "2", "1"),
        ("expand", "A3", "1", "2", "1"),
        ("verify", "--algebra", "G2", "--max-label", "1"),
        ("eval", "--algebra", "A2", "--lam", "1", "0", "--sigma-count", "5", "--seed", "3"),
    ],
)
def test_checks_accept_real_output_and_reject_tampering(lib, argv):
    code, out = _output(lib, argv)
    assert checks.check(lib, argv, code, out) is None
    payload = json.loads(out)
    if isinstance(payload, dict):
        payload["pass"] = False
    elif argv[0] == "verify":
        payload[0]["match"] = False
    else:
        payload[0]["c"] += 1
    assert checks.check(lib, argv, code, json.dumps(payload)) is not None


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = bench_run.main(["--workload", "char-expand", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
