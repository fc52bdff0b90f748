"""The traced benchmark binds library functions and methods by name
(`benchmarks/tracing.py`) and raises on a missing one.  Installing and
restoring its tracer here makes a rename that would break the traced run
fail the test suite instead, and one traced `eval` shows that the numeric
checks still go through the names the tracer counts."""

import importlib.util
from pathlib import Path

import polychar.cli  # imports every module the tracer rebinds
from polychar import demazure, formal, polysum, rootsys, weyl

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("polychar_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_name():
    tracing = _load_tracing()
    originals = (
        demazure.apply_D_simple, polysum.polytope_sum_demazure,
        polysum.apply_D_root, weyl.weyl_group, vars(rootsys.RootSystem)["coroot_labels"],
    )
    undo = tracing.install(tracing.Tracer())
    try:
        assert undo
        assert demazure.apply_D_simple is not originals[0]
        assert polysum.polytope_sum_demazure is not originals[1]
        assert polysum.apply_D_root is not originals[2]
    finally:
        tracing.restore(undo)
    assert (
        demazure.apply_D_simple, polysum.polytope_sum_demazure,
        polysum.apply_D_root, weyl.weyl_group, vars(rootsys.RootSystem)["coroot_labels"],
    ) == originals
    assert hasattr(weyl.weyl_group, "cache_clear")


def test_traced_eval_reaches_every_numeric_layer(capsys):
    # each numeric table keeps its last entry: start cold, whatever ran
    # before, so the traced run builds the weight table through
    # WeylElement.apply and the point tables from scratch
    polysum._weight_table.cache_clear()
    polysum._point_table.cache_clear()
    formal.exp_table.cache_clear()
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        code = polychar.cli.run(["eval", "--algebra", "A2", "--lam", "1", "1", "--sigma-count", "2"])
    finally:
        tracing.restore(undo)
    assert code == 0
    assert '"pass":true' in capsys.readouterr().out
    spans = {name for _sid, _parent, name, *_rest in tracer.spans}
    assert {"polysum.brion_eval", "polysum.weyl_char_eval", "formal.evaluate"} <= spans
    assert tracer.counts["weyl.element_apply.calls"] > 0
    assert tracer.counts["rootsys.inner_float.calls"] > 0


def test_traced_bsum_both_reaches_the_operator_layers(capsys):
    # the verify-sweep trace reads rootsys.coroot_labels.calls,
    # demazure.op.calls and formal.add.calls; a refactor must not route
    # around any of them
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        code = polychar.cli.run(["bsum", "A2", "1", "1", "--method", "both"])
    finally:
        tracing.restore(undo)
    assert code == 0
    assert '"match":true' in capsys.readouterr().out
    spans = {name for _sid, _parent, name, *_rest in tracer.spans}
    assert {"polysum.oracle", "polysum.formula", "demazure.op"} <= spans
    assert tracer.counts["rootsys.coroot_labels.calls"] > 0
    # the bracket joins its terms to its input with FormalSum.add, which
    # EXERCISED["verify-sweep"] reads as formal.add.calls
    assert tracer.counts["formal.add.calls"] > 0


def test_traced_char_and_expand_reach_their_layers(capsys):
    # the layers the char-expand workload reads.  char takes w0's word from
    # weyl.dominant_representative and builds no Weyl table.  expand A2
    # straightens Brion's formula, and expand D4, past the straightening
    # bound, still peels Freudenthal's multiplicities, so every name the
    # tracer binds for expand stays reachable; Freudenthal folds its
    # string weights on packed ints, so expand adds no call to
    # weyl.dominant_representative
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        codes = [polychar.cli.run(["char", "A2", "2", "1"])]
        char_calls = tracer.counts["weyl.dominant_representative.calls"]
        codes.append(polychar.cli.run(["expand", "A2", "2", "1"]))
        straightened = {name for _sid, _parent, name, *_rest in tracer.spans}
        codes.append(polychar.cli.run(["expand", "D4", "1", "0", "0", "0"]))
    finally:
        tracing.restore(undo)
    assert codes == [0, 0, 0]
    assert capsys.readouterr().out.count("\n") == 3
    assert {"demazure.character_demazure", "demazure.op", "polysum.expansion"} <= straightened
    assert not {"polysum.freudenthal", "polysum.dominant_below"} & straightened
    spans = {name for _sid, _parent, name, *_rest in tracer.spans}
    assert {"polysum.freudenthal", "polysum.dominant_below"} <= spans
    assert "weyl.weyl_group" not in spans
    assert char_calls > 0
    assert tracer.counts["weyl.dominant_representative.calls"] == char_calls
